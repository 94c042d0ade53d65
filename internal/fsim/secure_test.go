package fsim

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestCountersInLLCReducesDRAMCounterTraffic(t *testing.T) {
	// A small LLC forces counter re-fetches so the second-level counter
	// cache effect is visible at test scale.
	shrink := func(c *config.Config) { c.L3Bytes = 1 << 20; c.CtrCacheBytes = 8 << 10 }
	with := run(t, shrink, "canneal", 400_000)
	without := run(t, func(c *config.Config) { shrink(c); c.CountersInLLC = false }, "canneal", 400_000)
	w := with.Stats().Counter(stats.FsimDRAMCtrRead)
	wo := without.Stats().Counter(stats.FsimDRAMCtrRead)
	if w >= wo {
		t.Fatalf("LLC counter caching did not reduce counter reads: %d vs %d", w, wo)
	}
}

func TestWritebacksGenerateCounterWrites(t *testing.T) {
	s := run(t, func(c *config.Config) {
		c.L3Bytes = 512 << 10
		c.L2Bytes = 128 << 10
		c.L1Bytes = 16 << 10
		c.CtrCacheBytes = 8 << 10 // force dirty counters out to LLC and DRAM
	}, "canneal", 800_000)
	st := s.Stats()
	if st.Counter(stats.FsimDRAMDataWrite) == 0 {
		t.Fatal("no data writebacks reached DRAM")
	}
	if st.Counter(stats.FsimDRAMCtrWrite) == 0 {
		t.Fatal("no counter writebacks reached DRAM")
	}
}

func TestSC64OverflowsMoreThanMorphable(t *testing.T) {
	// SC-64's 7-bit minors overflow long before Morphable's formats give
	// up under the same write stream. Caches this small send BFS's
	// writebacks to DRAM often enough for minors to wrap at TestScale.
	tiny := func(c *config.Config) { c.L3Bytes = 64 << 10; c.L2Bytes = 16 << 10; c.L1Bytes = 4 << 10 }
	sc := run(t, func(c *config.Config) { tiny(c); c.Counter = config.CtrSC64 }, "BFS", 600_000)
	mo := run(t, tiny, "BFS", 600_000)
	scOvf := sc.Stats().Counter(stats.FsimDRAMOvfL0)
	moOvf := mo.Stats().Counter(stats.FsimDRAMOvfL0)
	if scOvf == 0 {
		t.Fatal("no SC-64 overflow: the test no longer reaches the overflow path")
	}
	if moOvf > scOvf {
		t.Fatalf("morphable overflowed more than sc64: %d vs %d", moOvf, scOvf)
	}
}

func TestEMCCUselessRateIsSmall(t *testing.T) {
	s := run(t, func(c *config.Config) { c.EMCC = true }, "pageRank", 600_000)
	st := s.Stats()
	useless := float64(st.Counter(stats.EmccUseless))
	misses := float64(st.Counter(stats.FsimL2DataMiss))
	if misses == 0 {
		t.Fatal("no L2 misses")
	}
	if frac := useless / misses; frac > 0.25 {
		t.Fatalf("useless counter accesses %.1f%% of L2 misses; paper reports ~3%%", 100*frac)
	}
}

func TestEMCCInvalidationsTracked(t *testing.T) {
	s := run(t, func(c *config.Config) { c.EMCC = true }, "canneal", 600_000)
	st := s.Stats()
	if st.Counter(stats.EmccCtrInserted) == 0 {
		t.Fatal("no counters inserted into L2")
	}
	inval := st.Counter(stats.EmccInvalidations)
	if inval == 0 {
		t.Skip("no invalidations at this scale")
	}
	if inval > st.Counter(stats.EmccCtrInserted) {
		t.Fatal("more invalidations than insertions")
	}
}

func TestWarmupIsExcludedFromStats(t *testing.T) {
	cfg := config.Default()
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Seed: 9, Refs: 100_000, Warmup: 100_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	reads := s.Stats().Counter(stats.FsimDataRead) + s.Stats().Counter(stats.FsimDataWrite)
	if reads != 100_000 {
		t.Fatalf("measured refs = %d, want exactly Refs (warmup excluded)", reads)
	}
}

func TestRegularBenchmarksHaveLowMissRates(t *testing.T) {
	// The Fig 24 set must be far more cache-friendly than the primary
	// set, or the Fig 24 "useless ~1%" shape cannot hold.
	reg := run(t, func(c *config.Config) {}, "exchange2_s", 300_000)
	irr := run(t, func(c *config.Config) {}, "canneal", 300_000)
	regMiss := float64(reg.Stats().Counter(stats.FsimL2DataMiss)) / 300_000
	irrMiss := float64(irr.Stats().Counter(stats.FsimL2DataMiss)) / 300_000
	if regMiss >= irrMiss {
		t.Fatalf("exchange2_s misses (%.3f) not below canneal (%.3f)", regMiss, irrMiss)
	}
}

func TestSpaceExposedOnlyWhenSecure(t *testing.T) {
	sec := run(t, func(c *config.Config) {}, "canneal", 10_000)
	if sec.Space() == nil {
		t.Fatal("secure run has no space")
	}
	non := run(t, func(c *config.Config) {
		c.Counter = config.CtrNone
		c.CountersInLLC = false
	}, "canneal", 10_000)
	if non.Space() != nil {
		t.Fatal("non-secure run exposes a space")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default()
	cfg.Cores = 0
	if _, err := New(&cfg, Options{Benchmark: "canneal"}); err == nil {
		t.Fatal("invalid config accepted")
	}
	cfg = config.Default()
	if _, err := New(&cfg, Options{Benchmark: "nosuch", Refs: 4}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("unknown benchmark: err = %v", err)
	}
	// A reference budget that leaves a core none and a negative warm-up
	// are errors naming the field.
	for _, tc := range []struct {
		refs, warm int64
		want       string
	}{
		{-5, 0, "Refs -5 leaves some of 4 cores no references"},
		{0, 0, "Refs 0 leaves some of 4 cores no references"},
		{3, 0, "Refs 3 leaves some of 4 cores no references"},
		{4, -100, "Warmup -100 is negative"},
	} {
		_, err := New(&cfg, Options{Benchmark: "canneal", Refs: tc.refs, Warmup: tc.warm, Scale: workload.TestScale()})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Refs %d, Warmup %d: err = %v, want one containing %q", tc.refs, tc.warm, err, tc.want)
		}
	}
}

// TestNewRejectsMoreCoresThanTiles: every core needs a tile of its own, as
// in tsim, so a run with more cores than the mesh has core tiles is an
// error naming both counts, before any workload is built; a run that fills
// every core tile is accepted.
func TestNewRejectsMoreCoresThanTiles(t *testing.T) {
	cfg := config.Default()
	_, err := New(&cfg, Options{Benchmark: "canneal", Cores: 29, Refs: 29, Scale: workload.TestScale()})
	if err == nil || !strings.Contains(err.Error(), "29 cores, but the 6x5 mesh has 28 core tiles") {
		t.Fatalf("29 cores: err = %v", err)
	}
	if _, err := New(&cfg, Options{Benchmark: "canneal", Cores: 28, Refs: 28, Scale: workload.TestScale()}); err != nil {
		t.Fatalf("28 cores: %v", err)
	}
}

// TestInvariantsAcrossConfigs replays a small trace through randomised
// configurations and checks the structural invariants that every run must
// satisfy, whatever the parameters.
func TestInvariantsAcrossConfigs(t *testing.T) {
	type knobs struct {
		design config.CounterDesign
		emcc   bool
		inLLC  bool
		llcKB  int64
		ctrKB  int64
		bench  string
	}
	cases := []knobs{
		{config.CtrMono, false, true, 1024, 32, "canneal"},
		{config.CtrMono, false, false, 512, 16, "mcf"},
		{config.CtrSC64, false, true, 2048, 64, "pageRank"},
		{config.CtrSC64, false, false, 1024, 128, "omnetpp"},
		{config.CtrMorphable, true, true, 512, 32, "BFS"},
		{config.CtrMorphable, true, true, 4096, 256, "canneal"},
		{config.CtrMorphable, false, true, 8192, 128, "triangleCount"},
		{config.CtrNone, false, false, 2048, 128, "DFS"},
	}
	for i, k := range cases {
		cfg := config.Default()
		cfg.Counter = k.design
		cfg.EMCC = k.emcc
		cfg.CountersInLLC = k.inLLC
		cfg.L3Bytes = k.llcKB << 10
		cfg.CtrCacheBytes = k.ctrKB << 10
		s, err := New(&cfg, Options{
			Benchmark: k.bench, Seed: uint64(i) + 1, Refs: 120_000,
			Warmup: 60_000, Scale: workload.TestScale(),
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		s.Run()
		st := s.Stats()

		// Accesses conserved.
		if st.Counter(stats.FsimDataRead)+st.Counter(stats.FsimDataWrite) != 120_000 {
			t.Fatalf("case %d: refs not conserved", i)
		}
		// The miss funnel can only narrow.
		l2 := st.Counter(stats.FsimL2DataMiss)
		llc := st.Counter(stats.FsimLLCDataMiss)
		dram := st.Counter(stats.FsimDRAMDataRead)
		if llc > l2 || dram > llc {
			t.Fatalf("case %d: funnel widened: l2=%d llc=%d dram=%d", i, l2, llc, dram)
		}
		// LLC lookups equal L2 misses.
		if st.Counter(stats.FsimLLCDataAccess) != l2 {
			t.Fatalf("case %d: llc accesses %d != l2 misses %d", i, st.Counter(stats.FsimLLCDataAccess), l2)
		}
		switch {
		case k.design == config.CtrNone:
			if st.Counter(stats.FsimDRAMCtrRead)+st.Counter(stats.FsimDRAMCtrWrite) != 0 {
				t.Fatalf("case %d: non-secure counter traffic", i)
			}
		case !k.emcc:
			// Classification must cover every DRAM data read.
			sum := st.Counter(stats.FsimCtrMCHit) + st.Counter(stats.FsimCtrLLCHit) + st.Counter(stats.FsimCtrLLCMiss)
			if k.inLLC && sum != dram {
				t.Fatalf("case %d: classification %d != dram reads %d", i, sum, dram)
			}
		default:
			// EMCC: every L2 miss probes exactly once.
			probes := st.Counter(stats.EmccL2CtrHit) + st.Counter(stats.EmccL2CtrMiss)
			if probes != l2 {
				t.Fatalf("case %d: probes %d != l2 misses %d", i, probes, l2)
			}
			if st.Counter(stats.EmccSpecFetch) != st.Counter(stats.EmccL2CtrMiss) {
				t.Fatalf("case %d: spec fetches != probe misses", i)
			}
		}
	}
}
