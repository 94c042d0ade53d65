// Package run is the scenario layer of the evaluation pipeline: it splits
// "regenerate the paper's figures" into a *plan* phase that declares every
// simulation as data and an *execute* phase that runs the deduplicated set
// across a worker pool, optionally backed by a persistent on-disk result
// cache.
//
// A Scenario canonically describes one simulation — mode (functional or
// timing) × benchmark × resolved configuration × seed × reference budget ×
// workload scale — and is identified by a content-addressed key derived
// from the provenance config hash (internal/prov.ScenarioKey). Two call
// sites that describe the same simulation share one run by construction;
// there is no hand-written memo-key vocabulary to keep collision-free.
//
// Outcomes are plain data (a stats snapshot plus, for timing runs, the
// tsim result summary), so they serialize to JSON for the cache and every
// consumer reads live and cached results identically.
package run

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/prov"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// Mode selects which simulator a scenario runs.
type Mode string

// The two simulators (DESIGN.md §2: Pintool-style counting vs gem5-style
// timing).
const (
	Functional Mode = "functional"
	Timing     Mode = "timing"
)

// Scenario canonically describes one simulation. The configuration is
// stored fully resolved (system selection and any sweep mutation already
// applied), so the scenario is pure data: hashable, comparable and
// executable without callbacks.
type Scenario struct {
	Mode      Mode
	Benchmark string
	Config    config.Config
	Seed      uint64
	Refs      int64
	Warmup    int64
	// Cores is the simulated core count; 0 uses the configuration default.
	Cores int
	Scale workload.Scale
	// Trace attaches a stats-sinking tracer (internal/obs) to timing runs,
	// so the outcome's snapshot carries the per-segment latency histograms
	// and request-mix counters. Tracing perturbs no timing, but it does
	// change the recorded statistics, so it is part of the key.
	Trace bool
	// Label is a human-readable tag for progress logs (e.g.
	// "canneal emcc/ch8"); it does not contribute to the key.
	Label string
}

// Key is the scenario's content-addressed identity: the provenance config
// hash of the resolved configuration plus the run framing. Everything that
// determines the outcome is in the key; nothing else is.
func (s *Scenario) Key() string {
	framing := map[string]string{
		"mode":      string(s.Mode),
		"benchmark": s.Benchmark,
		"seed":      fmt.Sprint(s.Seed),
		"refs":      fmt.Sprint(s.Refs),
		"warmup":    fmt.Sprint(s.Warmup),
		"cores":     fmt.Sprint(s.Cores),
		"scale":     fmt.Sprintf("%+v", s.Scale),
		"trace":     fmt.Sprint(s.Trace),
	}
	return prov.ScenarioKey(&s.Config, framing)
}

// Outcome is what a scenario produces: the stats snapshot and, for timing
// runs, the tsim result summary. Both parts are plain data and round-trip
// through JSON unchanged — the cache and all consumers rely on that.
type Outcome struct {
	Stats  stats.Snapshot `json:"stats"`
	Timing *tsim.Result   `json:"timing,omitempty"`
}

// NewFunctional builds (but does not run) the scenario's functional
// simulator instance.
func (s *Scenario) NewFunctional() (*fsim.Sim, error) {
	if s.Mode != Functional {
		return nil, fmt.Errorf("run: NewFunctional on %s scenario", s.Mode)
	}
	cfg := s.Config
	return fsim.New(&cfg, fsim.Options{
		Benchmark: s.Benchmark, Seed: s.Seed, Refs: s.Refs, Warmup: s.Warmup,
		Cores: s.Cores, Scale: s.Scale,
	})
}

// NewTiming builds (but does not run) the scenario's timing simulator
// instance, for callers that need to attach instrumentation (emccsim
// -trace) before running. It simulates exactly the configuration the scenario's
// key names.
func (s *Scenario) NewTiming() (*tsim.Sim, error) {
	if s.Mode != Timing {
		return nil, fmt.Errorf("run: NewTiming on %s scenario", s.Mode)
	}
	cfg := s.Config
	return tsim.New(&cfg, tsim.Options{
		Benchmark: s.Benchmark, Seed: s.Seed, Refs: s.Refs, Warmup: s.Warmup,
		Cores: s.Cores, Scale: s.Scale,
	})
}

// Execute runs the scenario to completion and returns its outcome. Each
// invocation owns its simulator and stats.Set outright, so concurrent
// Execute calls on distinct Scenario values never share state.
func (s *Scenario) Execute() (*Outcome, error) {
	switch s.Mode {
	case Functional:
		f, err := s.NewFunctional()
		if err != nil {
			return nil, err
		}
		f.Run()
		return &Outcome{Stats: f.Stats().Snapshot()}, nil
	case Timing:
		ts, err := s.NewTiming()
		if err != nil {
			return nil, err
		}
		if s.Trace {
			// Sink the tracer into the run's own stats set so the outcome
			// snapshot carries the obs histograms alongside everything else.
			ts.SetTracer(obs.New(obs.Options{Stats: ts.Stats()}))
		}
		res := ts.Run()
		return &Outcome{Stats: ts.Stats().Snapshot(), Timing: &res}, nil
	}
	return nil, fmt.Errorf("run: unknown mode %q", s.Mode)
}

// Plan is an ordered, key-deduplicated scenario set. The zero value is not
// usable; call NewPlan.
type Plan struct {
	order []*Scenario
	index map[string]*Scenario
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{index: make(map[string]*Scenario)} }

// Add declares a scenario, deduplicating by key, and returns the key. The
// first declaration wins; insertion order is the serial execution order.
func (p *Plan) Add(s Scenario) string {
	key := s.Key()
	if _, ok := p.index[key]; !ok {
		sc := s
		p.index[key] = &sc
		p.order = append(p.order, &sc)
	}
	return key
}

// Len reports the number of unique scenarios planned.
func (p *Plan) Len() int { return len(p.order) }

// Scenarios lists the unique scenarios in declaration order.
func (p *Plan) Scenarios() []*Scenario { return p.order }
