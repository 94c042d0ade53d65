package check

import (
	"bytes"
	"fmt"

	"repro/internal/config"
	"repro/internal/figures"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// metamorphicUnits splits the pillar into independent tasks for parallel
// Run: the analytic timeline grid first (cheap, exhaustive over a
// parameter grid), then real tsim runs (expensive, a handful of points).
// The AES, in-SRAM, bipbip and qdelay-dominance units read their runs
// from the memo, so a config one of them shares with another pillar runs
// once. channelQueueing reads its own load's runs from the memo's
// channels; exposedDecryptTail traces its runs and builds its simulators
// outright.
func metamorphicUnits(m *simMemo) []func() []Result {
	return []func() []Result{
		func() []Result { return timelineProperties() },
		func() []Result { return []Result{aesMonotonicity(m)} },
		func() []Result { return []Result{channelQueueing(m.channels)} },
		func() []Result { return []Result{channelQueueingDominance(m)} },
		func() []Result { return inSRAMBankMonotonicity(m) },
		func() []Result { return []Result{bipbipKnobInvariance(m, bipbipKnobs)} },
		func() []Result { return []Result{exposedDecryptTail(m.opt)} },
	}
}

// inSRAMBankMonotonicity checks the Sealer-style geometry model both ways:
// analytically, InSRAMAESLatency must be non-increasing and the provisioned
// bandwidth strictly increasing in the bank count over a wide range; and in
// the machine, tsim's simulated runtime must not increase when the in-SRAM
// design gets more AES banks (more arrays can only help).
func inSRAMBankMonotonicity(m *simMemo) []Result {
	const nameLat = "insram-geometry-monotone"
	const nameRun = "tsim-insram-banks-monotone"

	prevLat := sim.Time(0)
	prevBW := 0.0
	for i, banks := range []int{1, 2, 3, 4, 8, 16, 64, 256} {
		cfg := config.Default()
		cfg.Counter = config.CtrInSRAM
		cfg.CountersInLLC = false
		cfg.InSRAMBanks = banks
		lat := config.InSRAMAESLatency(&cfg)
		bw := config.InSRAMAESOpsPerSec(&cfg)
		if i > 0 && lat > prevLat {
			return []Result{failf(PillarMetamorphic, nameLat,
				"latency rose to %v at %d banks (was %v)", lat, banks, prevLat)}
		}
		if i > 0 && bw <= prevBW {
			return []Result{failf(PillarMetamorphic, nameLat,
				"bandwidth did not grow at %d banks: %.3g ≤ %.3g ops/s", banks, bw, prevBW)}
		}
		prevLat, prevBW = lat, bw
	}
	out := []Result{passf(PillarMetamorphic, nameLat,
		"latency non-increasing and bandwidth strictly increasing over 1…256 banks")}

	// Machine-level: fewer banks = slower cipher, so runtime ordered by
	// decreasing bank count must be non-decreasing.
	banksDesc := []int{64, 4, 1}
	times, err := tsimRuntimes(m, func(cfg *config.Config, i int) {
		cfg.Counter = config.CtrInSRAM
		cfg.CountersInLLC = false
		cfg.InSRAMBanks = banksDesc[i]
	}, len(banksDesc))
	if err != nil {
		return append(out, failf(PillarMetamorphic, nameRun, "%v", err))
	}
	return append(out, assertNonDecreasing(nameRun, "in-SRAM banks 64→4→1", times))
}

// bipbipKnobs are the counter-mode knobs bipbipKnobInvariance perturbs.
var bipbipKnobs = []knobPerturbation{
	{"ctr-cache-4x", func(c *config.Config) { c.CtrCacheBytes = 512 << 10 }},
	{"emcc-aes-frac-0.8", func(c *config.Config) { c.EMCCAESFraction = 0.8 }},
	{"aes-latency-2x", func(c *config.Config) { c.AESLatency *= 2 }},
}

// knobPerturbation is one labelled config mutation for the invariance check.
type knobPerturbation struct {
	label  string
	mutate func(*config.Config)
}

// bipbipKnobInvariance pins CtrBipBip's independence from the counter-mode
// machinery: the knobs that tune it (bipbipKnobs: counter-cache size, the
// EMCC AES split, the counter-mode AES latency) must be dead under the
// counter-free design. Not merely "similar results": the perturbed runs
// must be byte-identical in every recorded statistic and finish at the
// same tick. Tests pass a knob that genuinely matters (the cipher latency
// itself) to prove divergence is detected.
func bipbipKnobInvariance(m *simMemo, perturbations []knobPerturbation) Result {
	const name = "tsim-bipbip-knob-invariance"
	perturb := append([]knobPerturbation{{"baseline", func(*config.Config) {}}}, perturbations...)
	var base *memoRun
	for i, p := range perturb {
		cfg := config.Default()
		cfg.Counter = config.CtrBipBip
		cfg.CountersInLLC = false
		p.mutate(&cfg)
		r, err := m.tsim(cfg)
		if err != nil {
			return failf(PillarMetamorphic, name, "%s: %v", p.label, err)
		}
		if i == 0 {
			base = r
			continue
		}
		if r.res.SimulatedTime != base.res.SimulatedTime {
			return failf(PillarMetamorphic, name,
				"%s changed the runtime: %v vs baseline %v — a counter-mode knob leaked into the counter-free design", p.label, r.res.SimulatedTime, base.res.SimulatedTime)
		}
		if !bytes.Equal(r.snap, base.snap) {
			return failf(PillarMetamorphic, name,
				"%s changed recorded statistics — a counter-mode knob leaked into the counter-free design", p.label)
		}
	}
	return passf(PillarMetamorphic, name,
		"%d counter-mode knob perturbations leave bipbip byte-identical", len(perturb)-1)
}

// timelineProperties sweeps the analytic decrypt-timeline model (Figs 9/10)
// over a grid of latency configurations and asserts two properties at every
// point:
//
//  1. EMCC never loses to the baseline by more than the final xor step on
//     any timeline (counter hit row-hit / row-miss, counter miss). The xor
//     slack is inherent: when a timeline is fully data-bound, EMCC's
//     keystream is ready early but the xor still serialises after the
//     ciphertext arrives, exactly as in the baseline.
//  2. Raising AES latency alone never shortens any endpoint.
func timelineProperties() []Result {
	aesGrid := []float64{7, 14, 28, 56}
	hopGrid := []float64{0.5, 1, 2}
	tclGrid := []float64{10, 13.75, 20}
	ctrGrid := []float64{1, 3, 6}
	jGrid := []float64{0, 1, 2}

	points := 0
	// prevByKey remembers the previous (smaller-AES) endpoints at the same
	// non-AES coordinates for the monotonicity property.
	prevByKey := make(map[string][3]timelineEndpoint)

	for _, hop := range hopGrid {
		for _, tcl := range tclGrid {
			for _, ctrLat := range ctrGrid {
				for _, j := range jGrid {
					key := fmt.Sprintf("%v/%v/%v/%v", hop, tcl, ctrLat, j)
					for _, aes := range aesGrid {
						cfg := config.Default()
						cfg.AESLatency = sim.NS(aes)
						cfg.NoCHopLatency = sim.NS(hop)
						cfg.TCL = sim.NS(tcl)
						cfg.TRCD = sim.NS(tcl)
						cfg.CtrCacheLatency = sim.NS(ctrLat)
						cfg.EMCCLookupDelay = sim.NS(j)

						if loss := timelineEMCCLoss(&cfg); loss != "" {
							return []Result{failf(PillarMetamorphic, "timeline-emcc-wins",
								"at aes=%vns hop=%vns tcl=%vns ctr=%vns j=%vns: %s",
								aes, hop, tcl, ctrLat, j, loss)}
						}
						eps := timelineEndpoints(&cfg)
						if prev, ok := prevByKey[key]; ok {
							for i, ep := range eps {
								if ep.base < prev[i].base || ep.emcc < prev[i].emcc {
									return []Result{failf(PillarMetamorphic, "timeline-aes-monotone",
										"%s at hop=%vns tcl=%vns ctr=%vns j=%vns: raising AES to %vns shortened a timeline (baseline %v→%v, emcc %v→%v)",
										ep.label, hop, tcl, ctrLat, j, aes, prev[i].base, ep.base, prev[i].emcc, ep.emcc)}
								}
							}
						}
						points += len(eps)
						prevByKey[key] = eps
					}
				}
			}
		}
	}
	return []Result{
		passf(PillarMetamorphic, "timeline-emcc-wins", "emcc ≤ baseline + xor-slack at all %d grid endpoints", points),
		passf(PillarMetamorphic, "timeline-aes-monotone", "endpoints non-decreasing in AES latency across the grid"),
	}
}

// timelineEndpoint is one analytic decrypt-timeline endpoint pair.
type timelineEndpoint struct {
	label      string
	base, emcc sim.Time
}

// timelineEndpoints evaluates the three Fig 9/10 regimes under cfg.
func timelineEndpoints(cfg *config.Config) [3]timelineEndpoint {
	m := figures.NewTimelineModel(cfg)
	var eps [3]timelineEndpoint
	eps[0].label = "ctr-hit/row-hit"
	eps[0].base, eps[0].emcc = m.CounterHitLLC(true)
	eps[1].label = "ctr-hit/row-miss"
	eps[1].base, eps[1].emcc = m.CounterHitLLC(false)
	eps[2].label = "ctr-miss"
	eps[2].base, eps[2].emcc = m.CounterMissLLC()
	return eps
}

// timelineEMCCLoss reports a description of the first analytic endpoint at
// which EMCC loses to the baseline by more than the inherent xor slack
// under cfg, or "" if EMCC wins everywhere.
func timelineEMCCLoss(cfg *config.Config) string {
	slack := figures.NewTimelineModel(cfg).Slack()
	for _, ep := range timelineEndpoints(cfg) {
		if ep.emcc > ep.base+slack {
			return fmt.Sprintf("%s: emcc %v > baseline %v + slack %v", ep.label, ep.emcc, ep.base, slack)
		}
	}
	return ""
}

// aesMonotonicity runs tsim at increasing AES latencies on the same
// workload and requires simulated runtime never to decrease: a slower
// decrypt engine cannot speed the machine up.
func aesMonotonicity(m *simMemo) Result {
	times, err := tsimRuntimes(m, func(cfg *config.Config, i int) {
		ns := 7 << uint(i) // 7, 14, 28 ns
		cfg.AESLatency = sim.NS(float64(ns))
	}, 3)
	if err != nil {
		return failf(PillarMetamorphic, "tsim-aes-monotone", "%v", err)
	}
	return assertNonDecreasing("tsim-aes-monotone", "AES latency 7→14→28 ns", times)
}

// tsimRuntimes reads m's tsim runs of n configurations derived from the
// default by mutate(cfg, i) and returns their simulated runtimes.
func tsimRuntimes(m *simMemo, mutate func(*config.Config, int), n int) ([]sim.Time, error) {
	times := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		cfg := config.Default()
		mutate(&cfg, i)
		r, err := m.tsim(cfg)
		if err != nil {
			return nil, err
		}
		times[i] = r.res.SimulatedTime
	}
	return times, nil
}

func assertNonDecreasing(name, what string, times []sim.Time) Result {
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			return failf(PillarMetamorphic, name, "%s: runtime decreased %v → %v at step %d", what, times[i-1], times[i], i)
		}
	}
	return passf(PillarMetamorphic, name, "%s: runtimes %v non-decreasing", what, times)
}

// channelRefs is the length of channelQueueing's own load, whatever
// Options.Refs is. It is sized by the property's measured margin: over
// canneal seeds 1–100 at 4 cores, the single channel's mean data-read
// queuing delay is at least 3.31× the 4-channel one at 30 k references,
// more than the 3.01× of 120 k (DESIGN §7 has the sweep).
// TestChannelQueueingMargin pins the margin.
const channelRefs = 30_000

// channelOptions is channelQueueing's load: opt's seed and benchmark at
// at least 4 cores and channelRefs references, where the single channel
// is queue-bound.
func channelOptions(opt Options) Options {
	opt = opt.withDefaults()
	if opt.Cores < 4 {
		opt.Cores = 4
	}
	opt.Refs = channelRefs
	return opt
}

// channelConfig is the default machine with the given DRAM channel count.
func channelConfig(channels int) config.Config {
	cfg := config.Default()
	cfg.Channels = channels
	return cfg
}

// channelQueueing runs tsim at 1 and 4 DRAM channels and requires the
// mean data-read queuing delay not to increase: more parallel channels can
// only relieve queue pressure. The property only binds when queues
// actually form — at light load, channel interleaving perturbs row-buffer
// locality by more than the (near-zero) queuing delay it relieves — so
// its runs, which m memoizes, use channelOptions' raised core count and
// fixed reference budget, where the single-channel configuration is
// queue-bound. A small absolute slack absorbs FR-FCFS discreteness on
// top of that.
func channelQueueing(m *simMemo) Result {
	delays := make([]float64, 2)
	for i, channels := range []int{1, 4} {
		r, err := m.tsim(channelConfig(channels))
		if err != nil {
			return failf(PillarMetamorphic, "tsim-channel-qdelay", "%v", err)
		}
		delays[i] = r.st.Accum(stats.DramQDelayDataRead).Mean()
	}
	const slackNS = 0.5
	if delays[1] > delays[0]+slackNS {
		return failf(PillarMetamorphic, "tsim-channel-qdelay",
			"mean data-read qdelay rose from %.3f ns (1 ch) to %.3f ns (4 ch)", delays[0], delays[1])
	}
	return passf(PillarMetamorphic, "tsim-channel-qdelay",
		"mean data-read qdelay %.3f ns (1 ch) → %.3f ns (4 ch)", delays[0], delays[1])
}

// channelQueueingDominance strengthens channelQueueing from a mean
// comparison to first-order stochastic dominance over the per-request
// data-read queuing-delay distribution: at every histogram bucket boundary
// the 4-channel CDF must sit at or above the 1-channel CDF (minus a small
// probability-mass slack for FR-FCFS reordering discreteness). Unlike the
// mean property, dominance binds at any load — at light load both CDFs
// saturate near 1 immediately and the comparison is trivially tight, while
// a mean of near-zero delays could hide a heavy tail.
func channelQueueingDominance(m *simMemo) Result {
	const name = "tsim-channel-qdelay-dominance"
	cdfs := make([][]float64, 2)
	totals := make([]int64, 2)
	for i, channels := range []int{1, 4} {
		r, err := m.tsim(channelConfig(channels))
		if err != nil {
			return failf(PillarMetamorphic, name, "%v", err)
		}
		h := r.st.Hist(stats.DramQDelayDataRead)
		totals[i] = h.Count()
		cdfs[i] = histCDF(h)
	}
	if totals[0] == 0 || totals[1] == 0 {
		return failf(PillarMetamorphic, name,
			"no data-read qdelay samples recorded (%d @ 1 ch, %d @ 4 ch)", totals[0], totals[1])
	}
	// P(delay rounds below the first boundary) at light load is ~1 for both
	// configurations; slack only matters when queues actually form.
	const slack = 0.01
	for i := range cdfs[0] {
		if cdfs[1][i] < cdfs[0][i]-slack {
			return failf(PillarMetamorphic, name,
				"4-channel qdelay CDF falls below 1-channel at %d ns: P(≤)=%.4f vs %.4f (n=%d/%d)",
				metrics.BucketUpper(i), cdfs[1][i], cdfs[0][i], totals[1], totals[0])
		}
	}
	return passf(PillarMetamorphic, name,
		"4-channel data-read qdelay CDF dominates 1-channel at all %d bucket boundaries (n=%d/%d)",
		len(cdfs[0]), totals[1], totals[0])
}

// histCDF returns P(sample < bucket upper bound) at every boundary of the
// shared internal/metrics log-bucket geometry. Dominance is preserved
// under any monotone bucketing, so re-routing the qdelay histograms from
// the old 64×5 ns linear arrays onto the shared geometry keeps the
// property's meaning; only the boundary set the CDF is evaluated at
// changed (negative delays cannot occur, so there is no underflow mass).
func histCDF(h *metrics.Hist) []float64 {
	out := make([]float64, metrics.NumBuckets)
	var cum int64
	for i := range out {
		cum += h.Bucket(i)
		out[i] = float64(cum) / float64(h.Count())
	}
	return out
}
