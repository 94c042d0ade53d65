package tsim

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The allocation-free steady-state contract: once caches are warm and the
// request pools have reached their high-water mark, dispatching events
// through the prebound-callback machinery allocates nothing. The
// secure-memory designs ride that machinery too (pooled readReq, boxed
// seam payloads on a freelist, prebound MC and cipher chains).

// steadyStateAllocs reaches steady state (warmup + 1 ms of timed
// execution on a cache-resident working set) and measures allocations per
// 10 µs event window.
func steadyStateAllocs(t *testing.T, mutate func(*config.Config)) float64 {
	t.Helper()
	cfg := config.Default()
	mutate(&cfg)
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Cores: 2, Seed: 3, Refs: 50_000_000, Warmup: 200_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.warm(s.opt.Warmup)
	s.bindHot()
	for _, c := range s.cpus {
		c.start()
	}
	s.eng.RunFor(sim.Millisecond)
	return testing.AllocsPerRun(50, func() { s.eng.RunFor(sim.Microsecond * 10) })
}

// TestSteadyStateZeroAllocs pins AllocsPerRun == 0 for the steady-state
// event loop of each secure-memory design, with the non-secure control.
// The smallLLC rows keep the counter designs' DRAM-bound miss leg busy.
// Mono keeps its counter blocks by value in its map, so a first write to
// a counter block allocates only when the map grows.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"non-secure", func(c *config.Config) { c.Counter = config.CtrNone; c.CountersInLLC = false }},
		{"morphable", func(*config.Config) {}},
		{"emcc", func(c *config.Config) { c.EMCC = true }},
		{"sc64", func(c *config.Config) { c.Counter = config.CtrSC64 }},
		{"mono", func(c *config.Config) { c.Counter = config.CtrMono }},
		{"bipbip", bipbipCfg},
		{"insram", insramCfg},
		{"morphable-smallLLC", smallLLC},
		{"emcc-smallLLC", func(c *config.Config) { c.EMCC = true; smallLLC(c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := steadyStateAllocs(t, tc.mutate); allocs != 0 {
				t.Fatalf("steady-state loop allocated %.1f times per window, want 0", allocs)
			}
		})
	}
}

// runMallocs counts every heap allocation of one complete timed run
// (construction excluded). Mallocs is an exact counter, and the simulator
// is deterministic, so the numbers are stable run to run.
func runMallocs(t *testing.T, mutate func(*config.Config)) uint64 {
	t.Helper()
	cfg := config.Default()
	mutate(&cfg)
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Cores: 2, Seed: 3, Refs: 200_000, Warmup: 100_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.Run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestCounterFreeModesAddNoAllocsOverBaseline: under a working set that
// misses continuously (small LLC, so the cipher paths fire on every fill
// and writeback), the counter-free designs may not allocate beyond the
// non-secure baseline plus a small slack for extra in-flight events —
// their entire per-access machinery is prebound and pooled. Morphable's
// counter walk roughly doubles the baseline's count on this shape, so the
// bound genuinely separates the designs.
func TestCounterFreeModesAddNoAllocsOverBaseline(t *testing.T) {
	ns := runMallocs(t, func(c *config.Config) { c.Counter = config.CtrNone; c.CountersInLLC = false; smallLLC(c) })
	// 2% relative plus a small absolute term: with pooled requests and
	// seam payloads the whole-run counts are a few hundred, and the cipher
	// designs' longer fill latency legitimately grows the freelist
	// high-water marks by a handful of entries.
	allow := ns + ns/50 + 16
	for _, tc := range []struct {
		name   string
		mutate func(*config.Config)
	}{
		{"bipbip", func(c *config.Config) { bipbipCfg(c); smallLLC(c) }},
		{"insram", func(c *config.Config) { insramCfg(c); smallLLC(c) }},
	} {
		got := runMallocs(t, tc.mutate)
		if got > allow {
			t.Errorf("%s run allocated %d times vs non-secure %d (allowed %d)", tc.name, got, ns, allow)
		}
	}
}

// TestTracedWithHistogramsSteadyStateZeroAllocs pins the traced hot path:
// with a stats-only tracer attached — per-request Req contexts, segment
// accumulators AND the per-segment latency histograms all live — the
// steady-state event loop still allocates nothing. Pooled Reqs (freelist +
// reused Spans backing arrays), the preallocated top-N table and bound
// histogram cells are what make this hold.
func TestTracedWithHistogramsSteadyStateZeroAllocs(t *testing.T) {
	cfg := config.Default()
	cfg.EMCC = true // both lanes active
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Cores: 2, Seed: 3, Refs: 50_000_000, Warmup: 200_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTracer(obs.New(obs.Options{Stats: s.Stats()}))
	s.warm(s.opt.Warmup)
	s.bindHot()
	for _, c := range s.cpus {
		c.start()
	}
	// Long ramp so the Req pool and every Spans backing array reach their
	// high-water mark before measuring.
	s.eng.RunFor(sim.Millisecond)
	if allocs := testing.AllocsPerRun(50, func() { s.eng.RunFor(sim.Microsecond * 10) }); allocs != 0 {
		t.Fatalf("traced steady-state loop allocated %.1f times per window, want 0", allocs)
	}
	if s.Stats().Hist(stats.ObsReqLatencyHist).Count() == 0 {
		t.Fatal("latency histogram recorded nothing — the pin proved the wrong path")
	}
}
