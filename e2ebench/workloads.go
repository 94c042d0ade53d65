package main

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/run"
	"repro/internal/workload"
)

// Unit kinds: what one child process runs.
const (
	kindTiming     = "timing"     // one run.Scenario on the timing simulator (tsim)
	kindFunctional = "functional" // one run.Scenario on the counting simulator (fsim)
	kindSweep      = "sweep"      // figures fig16 cold into a fresh run.Cache, then warm from it
	kindCheck      = "check"      // one check.Run
	kindProbe      = "probe"      // the per-layer unit-cost probes of a traced run
)

// unitSpec fully describes one unit: the parent resolves every budget here
// and hands the spec to a fresh child process, which only executes it.
type unitSpec struct {
	Name      string         `json:"name"`
	Kind      string         `json:"kind"`
	Benchmark string         `json:"benchmark,omitempty"`
	System    string         `json:"system,omitempty"`
	Seed      uint64         `json:"seed"`
	Refs      int64          `json:"refs"`
	Warmup    int64          `json:"warmup,omitempty"`
	Scale     workload.Scale `json:"scale"`
	// Dir is a fresh scratch directory the parent creates and removes: the
	// sweep's result cache, or the probes' cache.
	Dir    string `json:"dir,omitempty"`
	Traced bool   `json:"traced,omitempty"`
	// Obs sizes the probe that prices the simulator's request tracer: a
	// canneal emcc timing run at one tenth of the paper-pair budget.
	Obs budget `json:"obs"`
}

// scenario resolves a timing or functional unit into the run.Scenario that
// emccsim and the figure harness would build for the same simulation.
func (u unitSpec) scenario() (run.Scenario, error) {
	cfg := config.Default()
	if err := config.ApplySystem(&cfg, u.System); err != nil {
		return run.Scenario{}, err
	}
	mode := run.Timing
	if u.Kind == kindFunctional {
		mode = run.Functional
	}
	return run.Scenario{
		Mode: mode, Benchmark: u.Benchmark, Config: cfg,
		Seed: u.Seed, Refs: u.Refs, Warmup: u.Warmup, Scale: u.Scale, Label: u.Name,
	}, nil
}

// budget sizes one simulation: its warm-up, its measured references and
// its workload scale.
type budget struct {
	Warmup, Refs int64
	Scale        workload.Scale
}

// sizing holds every budget of the five workloads. Tests swap it for
// miniature budgets.
type sizing struct {
	Pair       budget // paper-pair
	Graph      budget // graph-cold
	Count      budget // counting
	SweepRefs  int64  // sweep: figures.Harness.RefsOverride; 0 keeps the Quick budgets
	SweepScale workload.Scale
	CheckRefs  int64 // verify: check.Options.Refs; 0 keeps check's default
	ProbeOps   int64 // operations per layer probe
}

// fullSizing keeps every unit to a fraction of a second on a 2-CPU host, so
// that a run repeats each unit many times and wall_s can take each unit's
// fastest repeat: on a shared host the speed of a run of many seconds
// drifts by tens of percent, and only short repeated units see through it.
// The simulations run at DefaultScale with one sixteenth of the budgets of
// the figures they stand for (Fig 16's timing runs, Figs 6/7's functional
// runs; the graph workload on a graph of one sixteenth of the vertices).
// The sweep runs Quick's fig16 plan at a quarter of Quick's scale and a
// small fixed budget, and verify runs cmd/check with small budgets; both
// measure the orchestration around the simulator more than the simulator.
func fullSizing() sizing {
	def := workload.DefaultScale()
	graph := def
	graph.GraphVertices = def.GraphVertices / 16
	sweep := def
	sweep.GraphVertices = 1 << 17 // a quarter of figures.Harness{Quick: true}'s scale
	sweep.IrregularBytes = 16 << 20
	return sizing{
		Pair:       budget{Warmup: 2_500_000 / 16, Refs: 800_000 / 16, Scale: def},
		Graph:      budget{Warmup: 2_500_000 / 16, Refs: 800_000 / 16, Scale: graph},
		Count:      budget{Warmup: 3_000_000 / 16, Refs: 6_000_000 / 16, Scale: def},
		SweepRefs:  8_000,
		SweepScale: sweep,
		CheckRefs:  2_000,
		ProbeOps:   200_000,
	}
}

// size is the sizing in force; only tests change it.
var size = fullSizing()

// The verify workload runs check seeds from checkSeedFirst (cmd/check's
// default seed) to checkSeedLast, less failingCheckSeeds: the seeds in that
// range on which a check failed at the benchmark's 2,000 references, at the
// commit that defined the benchmark (the metamorphic tsim-exposed-decrypt-p99
// property: over so few references, emcc's p99 exposed decryption latency
// lands a few ns above morphable's). The benchmark measures how long
// verification takes, so it runs seeds that pass; a change that makes one of
// them fail is a failure the benchmark reports.
const (
	checkSeedFirst = 12
	checkSeedLast  = 100
)

var failingCheckSeeds = map[uint64]bool{30: true, 31: true, 34: true, 41: true, 57: true, 61: true, 89: true}

// checkSeeds maps a benchmark seed onto two check seeds: seed 1 runs 12 and
// 13, seed 2 the next two passing seeds, and so on around the range.
func checkSeeds(seed uint64) [2]uint64 {
	var ok []uint64
	for s := uint64(checkSeedFirst); s <= checkSeedLast; s++ {
		if !failingCheckSeeds[s] {
			ok = append(ok, s)
		}
	}
	n := uint64(len(ok) / 2)
	i := 2 * ((seed%n + n - 1) % n)
	return [2]uint64{ok[i], ok[i+1]}
}

// workloads lists the benchmark's workloads in the order of BENCHMARK.json.
var workloads = []string{"paper-pair", "graph-cold", "counting", "sweep", "verify"}

// units returns the units of one pass over the named workload.
func units(name string, seed uint64, sz sizing) ([]unitSpec, error) {
	sim := func(kind, bench, system string, b budget) unitSpec {
		return unitSpec{Name: bench + "/" + system, Kind: kind, Benchmark: bench, System: system,
			Seed: seed, Refs: b.Refs, Warmup: b.Warmup, Scale: b.Scale}
	}
	switch name {
	case "paper-pair":
		return []unitSpec{
			sim(kindTiming, "canneal", "morphable", sz.Pair),
			sim(kindTiming, "canneal", "emcc", sz.Pair),
			sim(kindTiming, "mcf", "morphable", sz.Pair),
			sim(kindTiming, "mcf", "emcc", sz.Pair),
		}, nil
	case "graph-cold":
		return []unitSpec{
			sim(kindTiming, "pageRank", "emcc", sz.Graph),
			sim(kindTiming, "BFS", "morphable", sz.Graph),
		}, nil
	case "counting":
		return []unitSpec{
			sim(kindFunctional, "canneal", "morphable", sz.Count),
			sim(kindFunctional, "canneal", "emcc", sz.Count),
			sim(kindFunctional, "streamcluster", "emcc", sz.Count),
		}, nil
	case "sweep":
		return []unitSpec{{Name: "fig16", Kind: kindSweep, Seed: seed, Refs: sz.SweepRefs, Scale: sz.SweepScale}}, nil
	case "verify":
		var us []unitSpec
		for _, s := range checkSeeds(seed) {
			us = append(us, unitSpec{Name: fmt.Sprintf("check/seed%d", s), Kind: kindCheck, Seed: s,
				Refs: sz.CheckRefs, Scale: workload.TestScale()})
		}
		return us, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloads)
}

// probeSpec sizes the probes of a traced run. They drive each layer with the
// reference stream of the workload's first unit; the sweep and verify
// workloads, which run many benchmarks, use canneal's stream at their scale.
func probeSpec(us []unitSpec, sz sizing) unitSpec {
	u := us[0]
	p := unitSpec{Name: "probes", Kind: kindProbe, Benchmark: u.Benchmark, Seed: u.Seed, Scale: u.Scale,
		Refs: sz.ProbeOps, Obs: budget{Warmup: sz.Pair.Warmup / 10, Refs: sz.Pair.Refs / 10, Scale: sz.Pair.Scale}}
	if p.Benchmark == "" {
		p.Benchmark = "canneal"
	}
	return p
}
