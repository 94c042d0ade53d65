package emccsim

// One benchmark per table/figure of the paper (DESIGN.md's per-experiment
// index), plus micro-benchmarks of the core substrates. The figure
// benchmarks share one memoised harness: the first benchmark that needs a
// given simulation pays for it, later ones reuse it — so `go test -bench=.`
// regenerates the full evaluation exactly once.
//
// Figure benchmarks run the harness in Quick mode (smaller traces); use
// cmd/figures without -quick for the full-size regeneration recorded in
// EXPERIMENTS.md.

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/dram"
	"repro/internal/figures"
	"repro/internal/fsim"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"

	iaddr "repro/internal/addr"
)

var (
	harnessOnce sync.Once
	harness     *figures.Harness
)

func sharedHarness() *figures.Harness {
	harnessOnce.Do(func() { harness = figures.NewHarness(true) })
	return harness
}

// benchFigure regenerates one figure and reports the paper claims its
// table records, one metric per claim key, beside its row count.
func benchFigure(b *testing.B, id string) {
	h := sharedHarness()
	var tab *figures.Table
	for i := 0; i < b.N; i++ {
		var ok bool
		tab, ok = h.ByID(id)
		if !ok {
			b.Fatalf("unknown figure %s", id)
		}
	}
	if tab == nil || len(tab.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	keys := make([]string, 0, len(tab.Claims))
	for k := range tab.Claims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.ReportMetric(tab.Claims[k], k)
	}
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// ---- One benchmark per table/figure ----

func BenchmarkTable1Config(b *testing.B)                 { benchFigure(b, "table1") }
func BenchmarkFig02TrafficOverhead(b *testing.B)         { benchFigure(b, "fig2") }
func BenchmarkFig03LLCLatencyDistribution(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFig04NoCRoute(b *testing.B)                { benchFigure(b, "fig4") }
func BenchmarkFig05TimelineCounterMiss(b *testing.B)     { benchFigure(b, "fig5") }
func BenchmarkFig06CounterHitMiss2MB(b *testing.B)       { benchFigure(b, "fig6") }
func BenchmarkFig07CounterHitMiss12MB(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig08TimelineCounterHit(b *testing.B)      { benchFigure(b, "fig8") }
func BenchmarkFig10TimelineEMCCMiss(b *testing.B)        { benchFigure(b, "fig10") }
func BenchmarkFig11UselessCounterAccesses(b *testing.B)  { benchFigure(b, "fig11") }
func BenchmarkFig12TotalCounterAccesses(b *testing.B)    { benchFigure(b, "fig12") }
func BenchmarkFig13TimelineCounterHitLLC(b *testing.B)   { benchFigure(b, "fig13") }
func BenchmarkFig14TimelineXPT(b *testing.B)             { benchFigure(b, "fig14") }
func BenchmarkFig15BandwidthBreakdown(b *testing.B)      { benchFigure(b, "fig15") }
func BenchmarkFig16Performance(b *testing.B)             { benchFigure(b, "fig16") }
func BenchmarkFig17L2MissLatency(b *testing.B)           { benchFigure(b, "fig17") }
func BenchmarkFig18AESLatencySensitivity(b *testing.B)   { benchFigure(b, "fig18") }
func BenchmarkFig19AESBandwidthSensitivity(b *testing.B) { benchFigure(b, "fig19") }
func BenchmarkFig20CounterCacheSensitivity(b *testing.B) { benchFigure(b, "fig20") }
func BenchmarkFig21ChannelSensitivity(b *testing.B)      { benchFigure(b, "fig21") }
func BenchmarkFig22QueuingDelay(b *testing.B)            { benchFigure(b, "fig22") }
func BenchmarkFig23Invalidations(b *testing.B)           { benchFigure(b, "fig23") }
func BenchmarkFig24UselessRegular(b *testing.B)          { benchFigure(b, "fig24") }

// BenchmarkAblations regenerates the design-choice ablation table (AES
// gating, adaptive offload, dynamic EMCC-off).
func BenchmarkAblations(b *testing.B) { benchFigure(b, "ablation") }

// ---- Micro-benchmarks of the substrates ----

// BenchmarkGF64Mul varies both operands (two steps of one xorshift64
// stream per multiply), so no operand's bits stay in the branch predictor
// or the multiplier's table.
func BenchmarkGF64Mul(b *testing.B) {
	var acc uint64
	x := uint64(0x9e3779b97f4a7c15)
	step := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < b.N; i++ {
		acc ^= crypto.GF64Mul(step(), step())
	}
	gf64Sink = acc
}

var gf64Sink uint64

func BenchmarkBlockMAC(b *testing.B) {
	e := crypto.NewEngine([]byte("benchmark key!!!"))
	block := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.MAC(block, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkBlockEncrypt(b *testing.B) {
	e := crypto.NewEngine([]byte("benchmark key!!!"))
	buf := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		e.Encrypt(buf, buf, uint64(i)<<6, uint64(i))
	}
}

func BenchmarkCacheLookupInsert(b *testing.B) {
	c := cache.New("bench", 1<<20, 8)
	for i := 0; i < b.N; i++ {
		blk := uint64(i) % 32768
		if !c.Lookup(blk) {
			c.Insert(blk, i&1 == 0, iaddr.KindData)
		}
	}
}

func BenchmarkEventEngine(b *testing.B) {
	eng := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(100, tick)
		}
	}
	eng.After(100, tick)
	eng.Run()
}

func BenchmarkDRAMRandomReads(b *testing.B) {
	eng := sim.New()
	st := stats.NewSet()
	cfg := config.Default()
	d := dram.New(eng, st, &cfg)
	r := uint64(12345)
	done := 0
	var issue func()
	issue = func() {
		r = r*6364136223846793005 + 1
		d.Enqueue(&dram.Request{Block: r % (1 << 24), Kind: dram.TrafficData, Done: func(sim.Time) {
			done++
			if done < b.N {
				issue()
			}
		}})
	}
	eng.At(0, issue)
	eng.Run()
}

func BenchmarkAESPoolReserve(b *testing.B) {
	eng := sim.New()
	p := mc.NewAESPool(eng, 2.6e9, sim.NS(14))
	for i := 0; i < b.N; i++ {
		p.Reserve(5, sim.Time(i)*1000)
	}
}

func BenchmarkNoCLatency(b *testing.B) {
	m := noc.New(6, 5, sim.NS(1), sim.NS(3))
	var acc sim.Time
	for i := 0; i < b.N; i++ {
		acc += m.OneWay(m.CoreTile(i%28), m.SliceOf(uint64(i)))
	}
	_ = acc
}

func BenchmarkWorkloadCanneal(b *testing.B) {
	gens, err := workload.NewSet("canneal", 1, 1, workload.TestScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gens[0].Next()
	}
}

func BenchmarkWorkloadPageRank(b *testing.B) {
	gens, err := workload.NewSet("pageRank", 1, 1, workload.TestScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gens[0].Next()
	}
}

// BenchmarkWorkloadGraphHub prices a generator that starts on a hub. Each
// op builds a fresh 4-core pageRank set on e2ebench sweep's 2^17-vertex
// graph (cached after the first) and pulls 32 k references from core 0,
// whose partition starts at vertex 0, the graph's 9.8 k-edge hub: its
// bytes/op and allocs/op are what walking a hub costs the generator.
func BenchmarkWorkloadGraphHub(b *testing.B) {
	sc := workload.TestScale()
	sc.GraphVertices = 1 << 17
	if _, err := workload.NewSet("pageRank", 4, 1, sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gens, _ := workload.NewSet("pageRank", 4, 1, sc)
		for j := 0; j < 1<<15; j++ {
			gens[0].Next()
		}
	}
}

func BenchmarkFunctionalSimThroughput(b *testing.B) {
	cfg := config.Default()
	s, err := fsim.New(&cfg, fsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: int64(b.N) + 1, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimThroughput measures the disabled-tracer path: no
// tracer is attached, so every obs call site reduces to a nil check. The
// tracing PR's acceptance bar is that this stays within 1% of the
// pre-instrumentation number; BenchmarkTimingSimTraced below prices the
// enabled path for comparison.
func BenchmarkTimingSimThroughput(b *testing.B) {
	cfg := config.Default()
	cfg.EMCC = true
	refs := int64(b.N)
	if refs < 4 {
		refs = 4
	}
	s, err := tsim.New(&cfg, tsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimTraced is the same run with full tracing into the
// aggregate sink (no Chrome writer): the cost of attributing every request.
func BenchmarkTimingSimTraced(b *testing.B) {
	cfg := config.Default()
	cfg.EMCC = true
	refs := int64(b.N)
	if refs < 4 {
		refs = 4
	}
	s, err := tsim.New(&cfg, tsim.Options{
		Benchmark: "canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
	})
	if err != nil {
		b.Fatal(err)
	}
	s.SetTracer(obs.New(obs.Options{Stats: s.Stats()}))
	b.ResetTimer()
	s.Run()
}

// BenchmarkTimingSimCoRun runs the multi-core co-run frontend: four
// cores each replay their own workload stream ("mcf+canneal" alternates
// mcf and canneal across cores at stacked, disjoint address regions) into
// the shared sliced LLC on a 4-channel memory system. The sub-benchmark
// keeps the name BENCH_10.json recorded it under.
func BenchmarkTimingSimCoRun(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		cfg := config.Default()
		cfg.EMCC = true
		cfg.Channels = 4
		refs := int64(b.N)
		if refs < 4 {
			refs = 4
		}
		s, err := tsim.New(&cfg, tsim.Options{
			Benchmark: "mcf+canneal", Seed: 1, Refs: refs, Scale: workload.TestScale(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		s.Run()
	})
}
