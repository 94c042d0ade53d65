package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// quickOpt keeps the harness tests fast; the full budget runs in cmd/check.
var quickOpt = Options{Refs: 20_000}

// TestDifferentialDetectsMismatchedConfigs proves the pillar can fail:
// running the same workload through a secure fsim and a non-secure tsim
// must trip the counter-traffic rules (the non-secure machine performs no
// counter reads at all).
func TestDifferentialDetectsMismatchedConfigs(t *testing.T) {
	broken := config.Default()
	broken.Counter = config.CtrNone
	broken.CountersInLLC = false
	rs := compareRuns("morphable", config.Default(), broken, newSimMemo(quickOpt.withDefaults()))
	if failedNamed(rs, "morphable/dram-counter-read") == 0 {
		t.Fatalf("secure-vs-non-secure pair not detected:\n%s", render(rs))
	}
}

// channelMarginRatio is the least 1-channel/4-channel mean data-read
// queuing-delay ratio TestChannelQueueingMargin accepts: well below the
// 3.31× minimum measured over canneal seeds 1–100 on channelQueueing's
// trace, well above the 1× of a DRAM model that ignores the channel count.
const channelMarginRatio = 2.0

// channelMargin is TestChannelQueueingMargin's assertion on the mean
// data-read queuing delays d1 and dN of one trace at 1 and N channels.
func channelMargin(d1, dN float64) error {
	if d1 < channelMarginRatio*dN {
		return fmt.Errorf("1-channel mean qdelay %.3f ns is under %.0f× the other's %.3f ns", d1, channelMarginRatio, dN)
	}
	return nil
}

// TestChannelQueueingMargin pins the margin channelQueueing's fixed-length
// load was sized by. tsim-channel-qdelay only asks that 4 channels add no
// queuing delay, so a DRAM model that ignores the channel count, whose
// delays are equal, passes it. Here the single channel must queue at least
// channelMarginRatio times as long, on cmd/check's seeds 12 and 13 and on
// seed 3, the sweep's tightest at 30 k references; and the same assertion
// on a 1-and-1-channel pair, the delays a channel-blind model reports,
// must fail.
func TestChannelQueueingMargin(t *testing.T) {
	for _, seed := range []uint64{12, 13, 3} {
		m := newSimMemo(channelOptions(Options{Seed: seed}))
		delay := func(channels int) float64 {
			r, err := m.tsim(channelConfig(channels))
			if err != nil {
				t.Fatalf("seed %d, %d channels: %v", seed, channels, err)
			}
			return r.st.Accum(stats.DramQDelayDataRead).Mean()
		}
		d1, d4 := delay(1), delay(4)
		if err := channelMargin(d1, d4); err != nil {
			t.Errorf("seed %d, 1 vs 4 channels: %v", seed, err)
		}
		if err := channelMargin(d1, delay(1)); err == nil {
			t.Errorf("seed %d: the margin accepts a 1-and-1-channel pair at %.3f ns", seed, d1)
		}
	}
}

// TestChannelBudgetIsFixed: channelQueueing's load is channelRefs long
// whatever the check's budget, -quick included, and keeps the check's
// seed and benchmark at no fewer than 4 cores.
func TestChannelBudgetIsFixed(t *testing.T) {
	for _, o := range []Options{{}, {Quick: true}, {Refs: 2_000}, {Refs: 500_000, Seed: 5, Cores: 8}} {
		got, opt := channelOptions(o), o.withDefaults()
		if got.Refs != channelRefs || got.Cores != max(opt.Cores, 4) || got.Seed != opt.Seed || got.Benchmark != opt.Benchmark {
			t.Errorf("%+v: channel options %+v, want %d refs at %d cores, seed %d, %s",
				o, got, channelRefs, max(opt.Cores, 4), opt.Seed, opt.Benchmark)
		}
	}
}

// TestTimelineDetectsBrokenEMCC proves the timeline property can fail: a
// config whose serial lookup delay J dwarfs every other latency makes EMCC
// lose its own analytic timelines, and timelineEMCCLoss must say so.
func TestTimelineDetectsBrokenEMCC(t *testing.T) {
	cfg := config.Default()
	cfg.EMCCLookupDelay = sim.NS(500)
	loss := timelineEMCCLoss(&cfg)
	if loss == "" {
		t.Fatal("J=500 ns config not flagged: EMCC cannot win with a 500 ns serial lookup")
	}
	if !strings.Contains(loss, "emcc") {
		t.Fatalf("loss description %q does not name the losing side", loss)
	}
}

// TestMonotonicityDetectsRegression proves the runtime-monotonicity
// assertion fails on a decreasing series.
func TestMonotonicityDetectsRegression(t *testing.T) {
	r := assertNonDecreasing("demo", "fabricated", []sim.Time{100, 90})
	if r.Pass {
		t.Fatal("decreasing runtime series not flagged")
	}
}

// TestBipBipInvarianceDetectsLiveKnob proves the knob-invariance check can
// fail: the cipher latency is the one knob CtrBipBip genuinely depends on,
// so perturbing it must break byte-identity.
func TestBipBipInvarianceDetectsLiveKnob(t *testing.T) {
	r := bipbipKnobInvariance(newSimMemo(quickOpt.withDefaults()), []knobPerturbation{
		{"bipbip-latency-2x", func(c *config.Config) { c.BipBipLatency *= 2 }},
	})
	if r.Pass {
		t.Fatalf("doubling the bipbip cipher latency not detected: %s", r.Detail)
	}
}

// TestInvariantDetectsBrokenConfig proves the pillar can fail: a negative
// EMCC lookup delay passes config.Validate (which doesn't model policy
// sanity) but trips emcc.NewPolicy's gated check when tsim builds the
// policy under the recorder.
func TestInvariantDetectsBrokenConfig(t *testing.T) {
	cfg := config.Default()
	cfg.EMCC = true
	cfg.EMCCLookupDelay = -sim.NS(1)
	rs := invariantRun("broken-emcc", cfg, newSimMemo(quickOpt.withDefaults()))
	if failedNamed(rs, "broken-emcc/tsim-violations") == 0 {
		t.Fatalf("negative EMCCLookupDelay not recorded as a violation:\n%s", render(rs))
	}
}

// TestConservationDetectsImbalance proves the conservation assertion fails
// on unequal pairs.
func TestConservationDetectsImbalance(t *testing.T) {
	if conserve("demo", "fabricated", 1, 2).Pass {
		t.Fatal("1 != 2 not flagged")
	}
}

// TestRunAggregates checks Run wires all three pillars together, that
// every one of them passes, and that Failed counts correctly on the
// all-green suite.
func TestRunAggregates(t *testing.T) {
	rs := Run(quickOpt)
	pillars := map[Pillar]bool{}
	for _, r := range rs {
		pillars[r.Pillar] = true
	}
	for _, p := range []Pillar{PillarDifferential, PillarMetamorphic, PillarInvariant} {
		if !pillars[p] {
			t.Fatalf("pillar %s missing from Run output", p)
		}
	}
	if n := Failed(rs); n != 0 {
		t.Fatalf("%d checks failed:\n%s", n, render(rs))
	}
}

// TestRunRejectsBadOptions: options no simulation can run — an unknown
// benchmark, a negative core count, fewer references than cores, also
// once -quick has halved the budget — give exactly one failing result,
// naming the fault, and run nothing.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Options{Benchmark: "no-such-benchmark"}, `unknown benchmark "no-such-benchmark"`},
		{Options{Cores: -1}, "cores must be positive, got -1"},
		{Options{Refs: 3, Cores: 4}, "3 references leave some of 4 cores none"},
		{Options{Refs: 3, Quick: true}, "1 references leave some of 2 cores none"},
	} {
		rs, m := run(c.opt)
		if len(rs) != 1 || rs[0].Pass || !strings.Contains(rs[0].Detail, c.want) {
			t.Errorf("%+v: want one failing result naming %q, got:\n%s", c.opt, c.want, render(rs))
		}
		if m != nil {
			t.Errorf("%+v: rejected options built a memo", c.opt)
		}
	}
}

// TestWithDefaultsIdempotent pins that defaulting options twice — Run
// does it, then every check it hands the options to — changes nothing, so
// -quick halves the budget once: the budget Run validates is the budget
// every check runs.
func TestWithDefaultsIdempotent(t *testing.T) {
	for _, o := range []Options{
		{},
		{Quick: true},
		{Refs: 30_000},
		{Refs: 30_000, Quick: true},
	} {
		once := o.withDefaults()
		if twice := once.withDefaults(); twice != once {
			t.Errorf("%+v: defaulted once %+v, twice %+v", o, once, twice)
		}
	}
	if got := (Options{Quick: true}).withDefaults().Refs; got != 30_000 {
		t.Errorf("-quick budget = %d refs, want half of the 60000 default", got)
	}
}

func failedNamed(rs []Result, name string) int {
	n := 0
	for _, r := range rs {
		if !r.Pass && r.Name == name {
			n++
		}
	}
	return n
}

func render(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
