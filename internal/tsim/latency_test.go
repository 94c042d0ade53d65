package tsim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// oneShot is a generator issuing a single cold load then idling on an
// L1-resident address, so exactly one request traverses the hierarchy.
type oneShot struct {
	target uint64
	n      int
}

func (g *oneShot) Name() string     { return "oneshot" }
func (g *oneShot) Footprint() int64 { return 1 << 20 }
func (g *oneShot) Next() workload.Access {
	g.n++
	if g.n == 1 {
		return workload.Access{Addr: g.target, NonMem: 0}
	}
	return workload.Access{Addr: g.target, NonMem: 0} // L1 hit afterwards
}

// oneShotSim builds a one-core simulation under cfg whose core replays
// oneShot's stream for target in place of a benchmark's.
func oneShotSim(t *testing.T, cfg *config.Config, target uint64) *Sim {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	g := &oneShot{target: target}
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	return newSim(cfg, Options{Cores: 1, Refs: 2}, mesh, []workload.Generator{g}, g.Footprint())
}

// TestSingleColdMissLatencyNonSecure hand-computes the latency of one cold
// load through L1 -> L2 -> LLC(miss) -> MC -> DRAM and back, and checks the
// simulator reproduces it exactly. Any double-charged or dropped latency
// component in the request path breaks this test.
func TestSingleColdMissLatencyNonSecure(t *testing.T) {
	cfg := config.Default()
	cfg.Counter = config.CtrNone
	cfg.CountersInLLC = false
	cfg.Cores = 1

	const target = uint64(0x40000)
	s := oneShotSim(t, &cfg, target)
	s.Run()

	block := addr.BlockOf(target)
	coreTile := s.mesh.CoreTile(0)
	slice := s.mesh.SliceOf(block)
	mcTile := s.mesh.MCTile(s.mesh.MCOf(block))

	want := cfg.L1Latency + // L1 lookup (miss)
		cfg.L2Latency + // L2 lookup (miss)
		s.mesh.OneWay(coreTile, slice) + // request to home slice
		cfg.L3TagLatency + // LLC tag (miss)
		s.mesh.OneWay(slice, mcTile) + // forward to MC
		cfg.TRCD + cfg.TCL + cfg.BurstLatency + // cold DRAM access
		s.mesh.OneWay(mcTile, slice) + // response via the slice
		s.mesh.OneWay(slice, coreTile) // back to L2

	got := s.st.Accum("tsim/l2-read-miss-latency-ps").Mean() / 1000
	// The recorded latency runs from L2-miss detection (L1+L2 already
	// paid) to data at L2.
	wantRecorded := (want - cfg.L1Latency - cfg.L2Latency).Nanoseconds()
	if got != wantRecorded {
		t.Fatalf("cold miss latency = %.3f ns, hand-computed %.3f ns", got, wantRecorded)
	}
}

// nonSecureColdMiss reproduces TestSingleColdMissLatencyNonSecure's hand
// computation: the recorded L2-miss latency (L1+L2 lookup already paid) of
// one cold load in a machine with the given config's NoC/DRAM timings.
func nonSecureColdMiss(s *Sim, target uint64) sim.Time {
	cfg := s.cfg
	block := addr.BlockOf(target)
	coreTile := s.mesh.CoreTile(0)
	slice := s.mesh.SliceOf(block)
	mcTile := s.mesh.MCTile(s.mesh.MCOf(block))
	return s.mesh.OneWay(coreTile, slice) +
		cfg.L3TagLatency +
		s.mesh.OneWay(slice, mcTile) +
		cfg.TRCD + cfg.TCL + cfg.BurstLatency +
		s.mesh.OneWay(mcTile, slice) +
		s.mesh.OneWay(slice, coreTile)
}

// TestSingleColdMissLatencyBipBip: the counter-free tweakable cipher adds
// exactly the MC forward tick plus the fixed cipher latency at L2 —
// nothing else. No counter fetch, no AES queue, no tree walk.
func TestSingleColdMissLatencyBipBip(t *testing.T) {
	cfg := config.Default()
	cfg.Counter = config.CtrBipBip
	cfg.CountersInLLC = false
	cfg.Cores = 1

	const target = uint64(0x40000)
	s := oneShotSim(t, &cfg, target)
	s.Run()

	want := (nonSecureColdMiss(s, target) +
		sim.NS(1) + // MC response tick (ciphertext forwarded as-is)
		cfg.BipBipLatency). // tweakable cipher at the cache controller
		Nanoseconds()
	got := s.st.Accum("tsim/l2-read-miss-latency-ps").Mean() / 1000
	if got != want {
		t.Fatalf("bipbip cold miss = %.3f ns, hand-computed %.3f ns", got, want)
	}
}

// TestSingleColdMissLatencyInSRAM: the direct cipher cannot start before
// the ciphertext arrives, so a cold miss pays the full in-SRAM pass: the
// pool serialises the block's four 16 B lanes at the geometry-derived op
// interval, then one wave latency, then the response tick.
func TestSingleColdMissLatencyInSRAM(t *testing.T) {
	cfg := config.Default()
	cfg.Counter = config.CtrInSRAM
	cfg.CountersInLLC = false
	cfg.Cores = 1

	const target = uint64(0x40000)
	s := oneShotSim(t, &cfg, target)
	s.Run()

	// AESPool.Reserve(n, at) on an idle pool: last op issues at
	// at + (n-1)*interval and completes after the pool latency.
	lanes := int64(addr.BlockBytes / 16)
	interval := sim.Time(float64(sim.Second)/config.InSRAMAESOpsPerSec(&cfg) + 0.5)
	want := (nonSecureColdMiss(s, target) +
		sim.Time(lanes-1)*interval + // lane serialisation on the SRAM arrays
		config.InSRAMAESLatency(&cfg) + // one full AES pass
		sim.NS(1)). // MC response tick
		Nanoseconds()
	got := s.st.Accum("tsim/l2-read-miss-latency-ps").Mean() / 1000
	if got != want {
		t.Fatalf("insram cold miss = %.3f ns, hand-computed %.3f ns", got, want)
	}
}

// TestSingleColdMissLatencyMorphable extends the hand computation with the
// secure path: the counter also misses everywhere, so the response waits
// for the serial counter chain (MC cache -> LLC -> DRAM -> verify -> AES).
func TestSingleColdMissLatencyMorphable(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 1

	const target = uint64(0x40000)
	s := oneShotSim(t, &cfg, target)
	s.Run()

	block := addr.BlockOf(target)
	coreTile := s.mesh.CoreTile(0)
	slice := s.mesh.SliceOf(block)
	mcTile := s.mesh.MCTile(s.mesh.MCOf(block))
	// Request reaches the MC (confirmed miss).
	atMC := cfg.L2Latency +
		s.mesh.OneWay(coreTile, slice) +
		cfg.L3TagLatency +
		s.mesh.OneWay(slice, mcTile)

	// The multi-level verification recursion is involved; assert bounds
	// rather than equality: the secure read must finish after the
	// counter's own cold DRAM access plus decode and AES, and stay below
	// an absurd ceiling.
	ctr := atMC + cfg.CtrCacheLatency
	lowerBound := (ctr + cfg.TRCD + cfg.TCL + cfg.BurstLatency + s.mc.decodeLat + cfg.AESLatency - cfg.L2Latency).Nanoseconds()

	got := s.st.Accum("tsim/l2-read-miss-latency-ps").Mean() / 1000
	if got < lowerBound {
		t.Fatalf("secure cold miss %.1f ns below structural lower bound %.1f ns", got, lowerBound)
	}
	if got > 4*lowerBound {
		t.Fatalf("secure cold miss %.1f ns absurdly above lower bound %.1f ns", got, lowerBound)
	}
	// And it must exceed the non-secure path for the same address.
	nsCfg := config.Default()
	nsCfg.Counter = config.CtrNone
	nsCfg.CountersInLLC = false
	nsCfg.Cores = 1
	ns := oneShotSim(t, &nsCfg, target)
	ns.Run()
	if got <= ns.st.Accum("tsim/l2-read-miss-latency-ps").Mean()/1000 {
		t.Fatal("secure cold miss not slower than non-secure")
	}
}
