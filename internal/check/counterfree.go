package check

import (
	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// counterFreeAcceptance is the acceptance check for the counter-free
// designs (CtrBipBip, CtrInSRAM): a full traced tsim run plus m's fsim run
// of the design must show exactly zero counter traffic — no LLC counter
// lookups, no on-chip counter misses, no counter/overflow DRAM accesses —
// and the obs per-request accounting must show a completely silent
// counter lane (no ctr-probe, no ctr-fetch, no counter-AES queue/compute
// spans, no counter-source classification) while the design's own cipher
// segment is the only crypto-lane work and lands at the right site (L2 for
// BipBip, MC for in-SRAM AES).
func counterFreeAcceptance(system string, m *simMemo) []Result {
	opt := m.opt
	name := func(rule string) string { return system + "-counter-free/" + rule }
	cfg := config.Default()
	if err := config.ApplySystem(&cfg, system); err != nil {
		return []Result{failf(PillarDifferential, name("config"), "%v", err)}
	}

	obsSt := stats.NewSet()
	trc := obs.New(obs.Options{Stats: obsSt, Sample: 1})
	ts, err := tsim.New(&cfg, tsim.Options{
		Benchmark: opt.Benchmark, Cores: opt.Cores, Seed: opt.Seed,
		Refs: opt.Refs, Warmup: opt.Refs, Scale: workload.TestScale(),
	})
	if err != nil {
		return []Result{failf(PillarDifferential, name("tsim"), "%v", err)}
	}
	ts.SetTracer(trc)
	ts.Run()

	fs, err := m.fsim(cfg)
	if err != nil {
		return []Result{failf(PillarDifferential, name("fsim"), "%v", err)}
	}

	var out []Result

	// 1. Zero counter traffic in both simulators' aggregate statistics.
	zeroKeys := []struct {
		st  *stats.Set
		key string
	}{
		{ts.Stats(), stats.TsimCtrLLCLookup},
		{ts.Stats(), stats.TsimCtrMissOnchip},
		{ts.Stats(), stats.DramAccessCtrRead},
		{ts.Stats(), stats.DramAccessCtrWrite},
		{ts.Stats(), stats.DramAccessOvfL0Read},
		{ts.Stats(), stats.DramAccessOvfHiRead},
		{ts.Stats(), stats.OverflowEvents},
		{fs.st, stats.FsimCtrLLCLookup},
		{fs.st, stats.FsimDRAMCtrRead},
	}
	bad := 0
	for _, z := range zeroKeys {
		//lint:dynamic-key table rows hold registry constants
		if n := z.st.Counter(z.key); n != 0 {
			out = append(out, failf(PillarDifferential, name("zero-ctr-traffic"), "%s = %d, want 0", z.key, n))
			bad++
		}
	}
	if bad == 0 {
		out = append(out, passf(PillarDifferential, name("zero-ctr-traffic"), "all %d counter/overflow traffic metrics are zero", len(zeroKeys)))
	}

	// 2. The obs counter lane is silent: no request spent any time on
	// counter probes, counter fetches, or the counter-mode AES pool.
	silentSegs := []obs.Segment{obs.SegCtrProbeL2, obs.SegCtrFetch, obs.SegAESQueue, obs.SegAESCompute}
	bad = 0
	for _, seg := range silentSegs {
		//lint:dynamic-key per-segment family obs/seg/<name>-ns
		if n := obsSt.Accum(obs.SegStatKey(seg)).Count; n != 0 {
			out = append(out, failf(PillarDifferential, name("obs-ctr-silent"), "%s has %d spans, want 0", obs.SegStatKey(seg), n))
			bad++
		}
	}
	for _, key := range []string{stats.ObsCtrSrcL2, stats.ObsCtrSrcLLC, stats.ObsCtrSrcMC} {
		//lint:dynamic-key loop over registry constants
		if n := obsSt.Counter(key); n != 0 {
			out = append(out, failf(PillarDifferential, name("obs-ctr-silent"), "%s = %d, want 0", key, n))
			bad++
		}
	}
	if bad == 0 {
		out = append(out, passf(PillarDifferential, name("obs-ctr-silent"), "no traced request carried counter-lane work"))
	}

	// 3. The design's own cipher is visible, at the right site only.
	ownSeg, otherSeg := obs.SegInSRAMCipher, obs.SegBipBipCipher
	ownSite, otherSite := stats.ObsDecryptAtMC, stats.ObsDecryptAtL2
	if system == "bipbip" {
		ownSeg, otherSeg = otherSeg, ownSeg
		ownSite, otherSite = otherSite, ownSite
	}
	//lint:dynamic-key per-segment family obs/seg/<name>-ns
	ownSpans := obsSt.Accum(obs.SegStatKey(ownSeg)).Count
	//lint:dynamic-key per-segment family obs/seg/<name>-ns
	otherSpans := obsSt.Accum(obs.SegStatKey(otherSeg)).Count
	//lint:dynamic-key site selected above from registry constants
	ownDec, otherDec := obsSt.Counter(ownSite), obsSt.Counter(otherSite)
	switch {
	case ownSpans == 0 || ownDec == 0:
		out = append(out, failf(PillarDifferential, name("cipher-site"), "cipher invisible: %d %s spans, %d decrypts at own site", ownSpans, obs.SegStatKey(ownSeg), ownDec))
	case otherSpans != 0 || otherDec != 0:
		out = append(out, failf(PillarDifferential, name("cipher-site"), "cipher leaked to the other design's site: %d spans, %d decrypts", otherSpans, otherDec))
	default:
		out = append(out, passf(PillarDifferential, name("cipher-site"), "%d cipher spans, %d decrypts, all at the design's own site", ownSpans, ownDec))
	}
	return out
}
