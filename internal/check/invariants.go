package check

import (
	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/stats"
)

// invariantUnits builds one independent unit per system. Each reads the
// system's fsim and tsim runs from the memo — the runs its differential
// unit compares — and requires zero violations on each run's own
// inv.Recorder, then applies post-run conservation rules: every reference
// is accounted for, and every DRAM data fill that was requested happened
// exactly once.
func invariantUnits(m *simMemo) []func() []Result {
	var units []func() []Result
	for _, system := range diffSystems {
		units = append(units, func() []Result {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, system); err != nil {
				return []Result{failf(PillarInvariant, system, "%v", err)}
			}
			return invariantRun(system, cfg, m)
		})
	}
	return units
}

// invariantRun reads m's fsim and tsim runs under cfg, each made under its
// own fresh invariant recorder, and reports violations plus
// conservation results.
func invariantRun(system string, cfg config.Config, m *simMemo) []Result {
	name := func(rule string) string { return system + "/" + rule }
	// Both simulators run refs/cores references on each core.
	cores := int64(m.opt.Cores)
	expectRefs := (m.opt.Refs / cores) * cores

	var out []Result

	fs, err := m.fsim(cfg)
	out = append(out, violationResult(name("fsim-violations"), fs.rec))
	if err != nil {
		return append(out, failf(PillarInvariant, name("fsim"), "%v", err))
	}
	out = append(out, conserve(name("fsim-refs"), "replayed refs",
		fs.st.Counter(stats.FsimDataRead)+fs.st.Counter(stats.FsimDataWrite), expectRefs))
	out = append(out, conserve(name("fsim-fills"), "DRAM data reads vs LLC data misses",
		fs.st.Counter(stats.FsimDRAMDataRead), fs.st.Counter(stats.FsimLLCDataMiss)))

	ts, err := m.tsim(cfg)
	out = append(out, violationResult(name("tsim-violations"), ts.rec))
	if err != nil {
		return append(out, failf(PillarInvariant, name("tsim"), "%v", err))
	}
	out = append(out, conserve(name("tsim-refs"), "replayed refs",
		ts.st.Counter(stats.TsimLoad)+ts.st.Counter(stats.TsimStore), expectRefs))
	out = append(out, conserve(name("tsim-fills"), "MSHR data fills vs DRAM data reads",
		ts.st.Counter(stats.TsimMCDataFill), ts.st.Counter(stats.DramAccessDataRead)))
	return out
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
