package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// synthetic drives a fixed three-request scenario through tr: an EMCC-style
// LLC-missing load with overlapping crypto lane, a plain LLC hit, and a
// store — enough to touch both lanes, all markers, and the sampler.
func synthetic(tr *Tracer) {
	ns := func(n int64) sim.Time { return sim.Time(n) * sim.Nanosecond }

	r1 := tr.StartReq(0, 0x1000, false, ns(0))
	r1.AddSpan(SegL1, ns(0), ns(1))
	r1.AddSpan(SegL2Lookup, ns(1), ns(3))
	r1.AddSpan(SegNoCReq, ns(3), ns(10))
	r1.AddSpan(SegLLCProbe, ns(10), ns(14))
	r1.MarkLLCMiss()
	r1.AddSpan(SegNoCToMC, ns(14), ns(20))
	r1.AddSpan(SegDRAMQueue, ns(20), ns(35))
	r1.AddSpan(SegDRAMService, ns(35), ns(70))
	// Crypto lane, overlapping the data path.
	r1.AddSpan(SegCtrProbeL2, ns(3), ns(6))
	r1.MarkCtr(CtrAtLLC)
	r1.AddSpan(SegCtrFetch, ns(6), ns(30))
	r1.AddSpan(SegAESQueue, ns(30), ns(32))
	r1.AddSpan(SegAESCompute, ns(32), ns(72))
	r1.AddSpan(SegNoCResp, ns(70), ns(78))
	r1.MarkDecrypt(DecAtL2, ns(78), ns(80))
	r1.Finish(ns(80))

	r2 := tr.StartReq(1, 0x2040, false, ns(5))
	r2.AddSpan(SegL1, ns(5), ns(6))
	r2.AddSpan(SegL2Lookup, ns(6), ns(8))
	r2.AddSpan(SegNoCReq, ns(8), ns(15))
	r2.AddSpan(SegLLCProbe, ns(15), ns(21))
	r2.AddSpan(SegNoCResp, ns(21), ns(28))
	r2.Finish(ns(28))

	r3 := tr.StartReq(0, 0x3080, true, ns(12))
	r3.AddSpan(SegL1, ns(12), ns(13))
	r3.MarkMerged()
	r3.Finish(ns(40))

	tr.Sample("mshr", ns(50), 3)
	tr.Sample("mshr", ns(100), 1)
	tr.Instant("emcc-off", 0, ns(60))
}

func TestAggregation(t *testing.T) {
	st := stats.NewSet()
	tr := New(Options{Stats: st, TopN: 2})
	synthetic(tr)

	if got := st.Counter("obs/req-traced"); got != 3 {
		t.Fatalf("req-traced = %d, want 3", got)
	}
	if got := st.Counter("obs/req-llc-miss"); got != 1 {
		t.Fatalf("req-llc-miss = %d, want 1", got)
	}
	if got := st.Counter("obs/ctr-src/llc"); got != 1 {
		t.Fatalf("ctr-src/llc = %d, want 1", got)
	}
	if got := st.Accum("obs/exposed-decrypt-ns"); got.Count != 1 || got.Sum != 2 {
		t.Fatalf("exposed-decrypt = %+v, want one 2 ns sample", got)
	}
	// Crypto lane work: probe 3 + fetch 24 + aesq 2 + aes 40 = 69 ns,
	// exposed 2 ns → overlapped 67 ns.
	if got := st.Accum("obs/overlapped-decrypt-ns"); got.Count != 1 || got.Sum != 67 {
		t.Fatalf("overlapped-decrypt = %+v, want one 67 ns sample", got)
	}
	if got := st.Accum("obs/seg/dram-service-ns"); got.Count != 1 || got.Sum != 35 {
		t.Fatalf("dram-service = %+v, want one 35 ns sample", got)
	}

	top := tr.TopRequests()
	if len(top) != 2 || top[0].Block != 0x1000 || top[1].Block != 0x3080 {
		t.Fatalf("topN wrong: %+v", top)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	r := tr.StartReq(0, 1, false, 0)
	if r != nil {
		t.Fatal("nil tracer returned non-nil req")
	}
	// All annotations must be no-ops on nil.
	r.AddSpan(SegL1, 0, 10)
	r.Begin(SegMCQueue, 0)
	r.Commit(SegMCQueue, 5)
	r.MarkLLCMiss()
	r.MarkOffload()
	r.MarkMerged()
	r.MarkCtr(CtrAtL2)
	r.MarkDecrypt(DecAtMC, 0, 1)
	r.Finish(10)
	tr.Sample("x", 0, 1)
	tr.Instant("x", 0, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() || tr.SamplePeriod() != 0 || tr.Traced() != 0 || tr.TopRequests() != nil {
		t.Fatal("nil tracer not inert")
	}
	if r.Latency() != 0 || r.SegTotal(SegL1) != 0 {
		t.Fatal("nil request not inert")
	}
}

// TestNilReceiverSweep calls every exported method of *Tracer and *Req on
// a nil receiver with zero-valued arguments: a disabled tracer is nil, and
// so is every request it hands out, so instrumentation sites call these
// methods without a guard. A method that panics here would panic the first
// time a run is not traced.
func TestNilReceiverSweep(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf((*Tracer)(nil)), reflect.TypeOf((*Req)(nil))} {
		if typ.NumMethod() == 0 {
			t.Fatalf("%v has no exported methods to sweep", typ)
		}
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			args := make([]reflect.Value, m.Type.NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type.In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("(%v).%s panics on a nil receiver: %v", typ, m.Name, p)
					}
				}()
				m.Func.Call(args)
			}()
		}
	}
}

func TestBeginCommit(t *testing.T) {
	tr := New(Options{})
	r := tr.StartReq(0, 1, false, 0)
	r.Begin(SegMCQueue, 10)
	r.Begin(SegMCQueue, 20) // retry re-entry: earlier start wins
	r.Commit(SegMCQueue, 50)
	r.Commit(SegMCQueue, 60) // double commit: no-op
	if got := r.SegTotal(SegMCQueue); got != 40 {
		t.Fatalf("mc-queue total = %d, want 40", got)
	}
	if len(r.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(r.Spans))
	}
}

func TestSampling(t *testing.T) {
	tr := New(Options{Sample: 3})
	var traced int
	for i := 0; i < 9; i++ {
		if r := tr.StartReq(0, uint64(i), false, 0); r != nil {
			traced++
			r.Finish(10)
		}
	}
	if traced != 3 || tr.Traced() != 3 {
		t.Fatalf("sampled %d of 9 with Sample=3, want 3", traced)
	}
}

// TestChromeGolden pins the streamed trace byte-for-byte for the synthetic
// workload: the stream must be deterministic and stay parseable JSON with
// the documented shape.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf, Meta: map[string]string{"bench": "synthetic", "seed": "1"}})
	synthetic(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Must parse as the documented envelope.
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
		TraceEvents     []map[string]any  `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" || doc.OtherData["bench"] != "synthetic" {
		t.Fatalf("envelope wrong: %+v", doc)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["X"] == 0 || phases["C"] != 2 || phases["M"] == 0 || phases["i"] != 1 {
		t.Fatalf("event mix wrong: %v", phases)
	}

	path := filepath.Join("testdata", "synthetic.trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace stream drifted from golden (run with -update if intended)\ngot:\n%s", buf.String())
	}
}

// TestChromeDeterminism double-checks byte-identical output across runs.
func TestChromeDeterminism(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		tr := New(Options{Writer: &buf, Meta: map[string]string{"seed": "1"}})
		synthetic(tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two identical synthetic runs produced different traces")
	}
}

// TestLaneReuse proves lane slots are recycled deterministically: two
// sequential requests on one core share lane 0, concurrent ones split.
// TestFinishClampsSpeculativeTails pins the lifetime-clamping contract:
// crypto-lane work recorded with a completion beyond the request's finish
// (a speculative AES reservation whose data was served on-chip) is clamped
// to the lifetime, and annotations arriving after Finish are dropped.
func TestFinishClampsSpeculativeTails(t *testing.T) {
	st := stats.NewSet()
	tr := New(Options{Stats: st})
	r := tr.StartReq(0, 0x40, false, 100)
	r.AddSpan(SegL1, 100, 102)
	r.AddSpan(SegAESCompute, 150, 400) // reserved past the eventual finish
	r.AddSpan(SegCtrFetch, 300, 350)   // starts after the finish entirely
	r.Finish(200)
	if got := r.SegTotal(SegAESCompute); got != 50 {
		t.Errorf("AES span not clamped to lifetime: %d ps attributed, want 50", got)
	}
	if got := r.SegTotal(SegCtrFetch); got != 0 {
		t.Errorf("post-finish-start span kept: %d ps", got)
	}
	r.AddSpan(SegNoCResp, 150, 160)
	r.MarkDecrypt(DecAtL2, 150, 190)
	r.MarkCtr(CtrAtMC)
	if r.SegTotal(SegNoCResp) != 0 || r.Decrypt != DecNone || r.CtrSrc != CtrUnknown {
		t.Error("annotations after Finish were not ignored")
	}
	if r.Latency() != 100 {
		t.Errorf("latency %d, want 100", r.Latency())
	}
}

func TestLaneReuse(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Options{Writer: &buf})
	a := tr.StartReq(0, 1, false, 0)
	b := tr.StartReq(0, 2, false, 0)
	if a.lane != 0 || b.lane != 1 {
		t.Fatalf("concurrent lanes = %d,%d, want 0,1", a.lane, b.lane)
	}
	a.Finish(10)
	c := tr.StartReq(0, 3, false, 20)
	if c.lane != 0 {
		t.Fatalf("freed lane not reused: got %d, want 0", c.lane)
	}
	b.Finish(30)
	c.Finish(30)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReportOutput smoke-tests the text renderers on the synthetic run.
func TestReportOutput(t *testing.T) {
	st := stats.NewSet()
	tr := New(Options{Stats: st})
	synthetic(tr)
	var b bytes.Buffer
	WriteSummary(&b, st)
	WriteTopRequests(&b, tr.TopRequests())
	out := b.String()
	for _, want := range []string{"traced requests: 3", "dram-service", "exposed", "top 3 slowest"} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestHistAggregation(t *testing.T) {
	st := stats.NewSet()
	tr := New(Options{Stats: st, TopN: 2})
	synthetic(tr)

	// Request latencies: 80, 23, 28 ns → the hist sees integer ns.
	lh := st.Hist(stats.ObsReqLatencyHist)
	if lh.Count() != 3 || lh.Max() != 80 {
		t.Fatalf("latency hist n=%d max=%d, want 3/80", lh.Count(), lh.Max())
	}
	if lh.Quantile(1) != 80 {
		t.Fatalf("latency p100 = %d, want 80", lh.Quantile(1))
	}
	// Per-segment hist mirrors the accumulator counts.
	sh := st.Hist(SegHistKey(SegDRAMService))
	if sh.Count() != 1 || sh.Max() != 35 {
		t.Fatalf("dram-service hist n=%d max=%d, want 1/35", sh.Count(), sh.Max())
	}
	// Exposed-decrypt hist: one 2 ns sample.
	eh := st.Hist(stats.ObsExposedDecryptHist)
	if eh.Count() != 1 || eh.Max() != 2 {
		t.Fatalf("exposed hist n=%d max=%d, want 1/2", eh.Count(), eh.Max())
	}
	// Quantiles of the latency hist are monotone and within range.
	if p50, p99 := lh.Quantile(0.5), lh.Quantile(0.99); p50 > p99 || p99 > lh.Max() {
		t.Fatalf("latency quantiles out of order: p50=%d p99=%d max=%d", p50, p99, lh.Max())
	}
}

func TestReqPoolingPreservesTopN(t *testing.T) {
	st := stats.NewSet()
	tr := New(Options{Stats: st, TopN: 3})
	ns := func(n int64) sim.Time { return sim.Time(n) * sim.Nanosecond }
	// 50 requests with latency i ns; pooled Reqs are reused heavily but
	// the retained top-3 must keep their own state intact.
	for i := int64(1); i <= 50; i++ {
		r := tr.StartReq(int(i%4), uint64(i)<<6, false, ns(0))
		r.AddSpan(SegL1, ns(0), ns(i))
		r.Finish(ns(i))
	}
	top := tr.TopRequests()
	if len(top) != 3 {
		t.Fatalf("top has %d entries, want 3", len(top))
	}
	for j, wantNS := range []int64{50, 49, 48} {
		if got := int64(top[j].Latency()) / 1000; got != wantNS {
			t.Fatalf("top[%d] latency %d ns, want %d", j, got, wantNS)
		}
		if len(top[j].Spans) != 1 || top[j].Spans[0].Seg != SegL1 {
			t.Fatalf("top[%d] spans corrupted by pooling: %+v", j, top[j].Spans)
		}
	}
	// The freelist actually recycles: run the same workload again on the
	// same tracer and confirm no unbounded growth of live requests (a
	// proxy: pool head is non-nil after the churn above).
	if tr.freeReq == nil {
		t.Fatal("freelist empty after 47 evictions")
	}
}
