package check

import (
	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/inv"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Invariants runs both simulators over every system with a per-run
// inv.Recorder enabled and requires zero violations, then applies post-run
// conservation rules: every reference replayed is accounted for, and every
// DRAM data fill that was requested happened exactly once.
func Invariants(opt Options) []Result {
	opt = opt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		return []Result{failf(PillarInvariant, "record-trace", "%v", err)}
	}
	var out []Result
	for _, unit := range invariantUnits(tr, opt) {
		out = append(out, unit()...)
	}
	return out
}

// invariantUnits builds one independent unit per system. Each unit owns its
// simulators, stats.Sets and inv.Recorders outright — a run with a
// recorder attached never goes through Run's memo — so the units are safe
// to fan out across goroutines alongside the other pillars' units.
func invariantUnits(tr *trace.Trace, opt Options) []func() []Result {
	var units []func() []Result
	for _, system := range diffSystems {
		system := system
		units = append(units, func() []Result {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, system); err != nil {
				return []Result{failf(PillarInvariant, system, "%v", err)}
			}
			return InvariantRun(system, &cfg, tr, opt)
		})
	}
	return units
}

// InvariantRun executes one configuration through fsim and tsim, each under
// its own freshly enabled invariant recorder, and reports violations plus
// conservation results.
func InvariantRun(system string, cfg *config.Config, tr *trace.Trace, opt Options) []Result {
	opt = opt.withDefaults()
	name := func(rule string) string { return system + "/" + rule }
	// Both simulators replay refs/cores references on each core.
	expectRefs := (opt.Refs / int64(tr.Cores)) * int64(tr.Cores)

	var out []Result

	// fsim under its own recorder.
	frec := inv.NewRecorder()
	frec.Enable(true)
	fst, err := runFsim(cfg, tr, opt.Refs, frec)
	out = append(out, violationResult(name("fsim-violations"), frec))
	if err != nil {
		return append(out, failf(PillarInvariant, name("fsim"), "%v", err))
	}
	out = append(out, conserve(name("fsim-refs"), "replayed refs",
		fst.Counter(stats.FsimDataRead)+fst.Counter(stats.FsimDataWrite), expectRefs))
	out = append(out, conserve(name("fsim-fills"), "DRAM data reads vs LLC data misses",
		fst.Counter(stats.FsimDRAMDataRead), fst.Counter(stats.FsimLLCDataMiss)))

	// tsim under its own recorder.
	trec := inv.NewRecorder()
	trec.Enable(true)
	tst, err := runTsim(cfg, tr, opt.Refs, trec)
	out = append(out, violationResult(name("tsim-violations"), trec))
	if err != nil {
		return append(out, failf(PillarInvariant, name("tsim"), "%v", err))
	}
	out = append(out, conserve(name("tsim-refs"), "replayed refs",
		tst.Counter(stats.TsimLoad)+tst.Counter(stats.TsimStore), expectRefs))
	out = append(out, conserve(name("tsim-fills"), "MSHR data fills vs DRAM data reads",
		tst.Counter(stats.TsimMCDataFill), tst.Counter(stats.DramAccessDataRead)))
	return out
}

// runFsim replays refs references of tr through fsim under cfg, with rec
// (which may be nil) as its invariant recorder.
func runFsim(cfg *config.Config, tr *trace.Trace, refs int64, rec *inv.Recorder) (*stats.Set, error) {
	gens, err := tr.Generators()
	if err != nil {
		return nil, err
	}
	s, err := fsim.New(cfg, fsim.Options{
		Cores: tr.Cores, Refs: refs, Generators: gens, DataBytes: tr.Footprint,
		Recorder: rec,
	})
	if err != nil {
		return nil, err
	}
	s.Run()
	return s.Stats(), nil
}

// runTsim is runFsim's tsim counterpart.
func runTsim(cfg *config.Config, tr *trace.Trace, refs int64, rec *inv.Recorder) (*stats.Set, error) {
	s, err := newReplaySim(cfg, tr, refs, rec)
	if err != nil {
		return nil, err
	}
	s.Run()
	return s.Stats(), nil
}

// violationResult converts one run's recorder state into a Result.
func violationResult(name string, rec *inv.Recorder) Result {
	if n := rec.Count(); n > 0 {
		vs := rec.Violations()
		first := vs[0]
		return failf(PillarInvariant, name, "%d violation(s); first: [%s] %s", n, first.Component, first.Message)
	}
	return passf(PillarInvariant, name, "0 violations recorded")
}

// conserve asserts exact equality of a conservation pair.
func conserve(name, what string, got, want int64) Result {
	if got != want {
		return failf(PillarInvariant, name, "%s: %d != %d", what, got, want)
	}
	return passf(PillarInvariant, name, "%s: %d == %d", what, got, want)
}
