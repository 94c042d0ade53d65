package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/workload"
)

// TestScenarioParity holds the benchmark's units to what users run: a unit's
// snapshot is byte-identical to run.Scenario.Execute's (what emccsim and
// report run), traced or not, and paper-pair's canneal gain is the fig16
// canneal cell of a figure harness at the same budgets.
func TestScenarioParity(t *testing.T) {
	sz := miniSizing()
	const seed = 3
	pair, err := units("paper-pair", seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	counting, err := units("counting", seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	p := pass{}
	for _, u := range []unitSpec{pair[0], pair[1], counting[0]} {
		sc, err := u.scenario()
		if err != nil {
			t.Fatal(err)
		}
		o, err := sc.Execute()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := o.Stats.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			u.Traced = traced
			res := runUnit(u, func() {})
			if res.Err != "" {
				t.Fatalf("%s: %s", u.Name, res.Err)
			}
			if res.Digest != digest(buf) {
				t.Errorf("%s traced=%v: snapshot differs from run.Scenario.Execute", u.Name, traced)
			}
			if !traced && u.Kind == kindTiming {
				p.Units = append(p.Units, unitRun{Spec: u, Res: res})
			}
		}
	}
	gain, ok := cannealGainPct(p)
	if !ok {
		t.Fatal("no canneal pair")
	}
	h := figures.NewHarness(false)
	h.Seed = seed
	// The harness runs RefsOverride/4 refs after RefsOverride/2 of warm-up.
	h.RefsOverride = 4 * sz.Pair.Refs
	if h.RefsOverride/2 != sz.Pair.Warmup {
		t.Fatalf("pair budget %+v has no RefsOverride equivalent", sz.Pair)
	}
	h.ScaleOverride = &sz.Pair.Scale
	// Serial: concurrent workers would write workload's unlocked graph cache
	// (the sweep workload prebuilds the graph to avoid exactly that).
	h.Workers = 1
	tab, _ := h.ByID("fig16")
	cell, err := cellPct(tab, "canneal", len(tab.Header)-1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.1f", gain); got != fmt.Sprintf("%.1f", cell) {
		t.Errorf("paper-pair canneal gain %s%%, fig16 cell %.1f%%", got, cell)
	}
}

// TestSweepWorkers runs a miniature sweep in this process, where the race
// detector sees it: run the package's tests with -race. The sweep's two
// workers share workload's graph cache, which takes no lock; the sweep
// prebuilds everything that cache fills lazily (the graph, the BFS and DFS
// orders), so the workers only read it. A lazily filled field added later
// makes this test fail under -race instead of crashing benchmark runs.
func TestSweepWorkers(t *testing.T) {
	us, err := units("sweep", 2, miniSizing())
	if err != nil {
		t.Fatal(err)
	}
	u := us[0]
	u.Dir = t.TempDir()
	res := runUnit(u, func() {})
	if res.Err != "" || res.Scenarios == 0 {
		t.Fatalf("sweep: %d scenarios, err %q", res.Scenarios, res.Err)
	}
}

// TestE2EMetrics pins how a run's end-to-end values come from its passes:
// wall_s sums the lower quartiles of each unit's repeats, taken unit by
// unit, whichever passes they fall in; setup_s and peak_rss_mb are medians
// of the per-pass values.
func TestE2EMetrics(t *testing.T) {
	p := func(wallA, wallB, setup, rss float64) pass {
		return pass{Units: []unitRun{
			{WallS: wallA, SetupS: setup / 2, RSSMB: rss},
			{WallS: wallB, SetupS: setup / 2, RSSMB: rss / 2},
		}}
	}
	got := e2eMetrics([]pass{
		p(1.0, 2.4, 0.2, 30), p(1.6, 2.0, 0.4, 10), p(1.2, 2.8, 0.3, 20), p(1.8, 2.2, 0.5, 40), p(1.4, 2.6, 0.1, 5),
	})
	// Lower quartiles, as Python's statistics.quantiles gives them: unit A
	// 1.1 of {1.0 ... 1.8}, unit B 2.1 of {2.0 ... 2.8}.
	want := map[string]float64{"wall_s": 3.2, "setup_s": 0.3, "peak_rss_mb": 20}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if len(e2eMetrics(nil)) != 0 {
		t.Error("metrics from no passes")
	}
}

// TestCheckSeeds pins the verify workload's seed mapping: seed 1 runs
// cmd/check's default seed and the next, every seed maps into the range and
// around the failing seeds, and consecutive seeds run distinct pairs.
func TestCheckSeeds(t *testing.T) {
	if got := checkSeeds(1); got != [2]uint64{12, 13} {
		t.Errorf("checkSeeds(1) = %v, want [12 13]", got)
	}
	seen := map[[2]uint64]uint64{}
	for seed := uint64(0); seed < 200; seed++ {
		p := checkSeeds(seed)
		for _, s := range p {
			if s < checkSeedFirst || s > checkSeedLast || failingCheckSeeds[s] {
				t.Errorf("checkSeeds(%d) = %v: %d is outside the range or failing", seed, p, s)
			}
		}
		if prev, ok := seen[p]; ok && seed-prev < 40 {
			t.Errorf("seeds %d and %d both run %v", prev, seed, p)
		}
		seen[p] = seed
	}
}

// TestFailureAccounting checks that a unit that errors or panics counts as
// failed while the pass goes on, and that a changed output digest between
// repeats of one unit is a failure too.
func TestFailureAccounting(t *testing.T) {
	useMiniSizing(t)
	sc := workload.TestScale()
	badGraph := sc
	badGraph.GraphVertices = 3 // not a power of two: the graph builder panics
	us := []unitSpec{
		{Name: "nope/emcc", Kind: kindTiming, Benchmark: "nope", System: "emcc", Seed: 1, Refs: 400, Scale: sc},
		{Name: "BFS/emcc", Kind: kindTiming, Benchmark: "BFS", System: "emcc", Seed: 1, Refs: 400, Scale: badGraph},
		{Name: "canneal/emcc", Kind: kindTiming, Benchmark: "canneal", System: "emcc", Seed: 1, Refs: 400, Scale: sc},
	}
	opt := runOptions{workload: "failures", seed: 1, seconds: 0.001, dir: t.TempDir()}
	art, err := runBench(opt, us, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	passes := len(art.Passes)
	if passes != minPasses(false) || art.Attempted != 3*passes || art.Failed != 2*passes || art.Correct {
		t.Fatalf("%d passes: attempted %d, failed %d, correct %v; want %d, %d, false",
			passes, art.Attempted, art.Failed, art.Correct, 3*passes, 2*passes)
	}
	for _, p := range art.Passes {
		if !strings.Contains(p.Units[1].Err, "panic") || p.Units[2].Err != "" {
			t.Fatalf("unit errors %q, %q, %q: want an error, a panic and a success",
				p.Units[0].Err, p.Units[1].Err, p.Units[2].Err)
		}
	}

	d := digests{}
	runs := []unitRun{
		{Spec: unitSpec{Name: "a"}, Res: unitResult{Digest: "1"}},
		{Spec: unitSpec{Name: "a"}, Res: unitResult{Digest: "1"}},
		{Spec: unitSpec{Name: "a"}, Res: unitResult{Digest: "2"}},
		{Spec: unitSpec{Name: "b"}, Res: unitResult{}},
	}
	for i := range runs {
		d.check(&runs[i])
	}
	if runs[0].Err != "" || runs[1].Err != "" || runs[2].Err == "" || runs[3].Err == "" {
		t.Errorf("digest checks: %q %q %q %q; want only the changed and the missing digest to fail",
			runs[0].Err, runs[1].Err, runs[2].Err, runs[3].Err)
	}
}
