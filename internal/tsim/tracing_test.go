package tsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tracedRun executes one traced tsim run and returns its stats set, the
// tracer and the Chrome stream (nil writer when buf is nil).
func tracedRun(t *testing.T, mutate func(*config.Config), scale workload.Scale, refs int64, buf *bytes.Buffer) (*stats.Set, *obs.Tracer) {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(&cfg, Options{Benchmark: "canneal", Seed: 3, Refs: refs, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Options{
		Stats:        s.Stats(),
		SamplePeriod: sim.Microsecond,
		Meta:         map[string]string{"test": "tracing"},
	}
	if buf != nil {
		o.Writer = buf
	}
	tr := obs.New(o)
	s.SetTracer(tr)
	s.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return s.Stats(), tr
}

// TestTracedRunAttributesLatency sanity-checks the end-to-end wiring: every
// L1 miss is traced, segment attribution lands in the stats sink, and the
// slowest-request table is populated and sorted.
func TestTracedRunAttributesLatency(t *testing.T) {
	st, tr := tracedRun(t, func(c *config.Config) { c.EMCC = true }, workload.TestScale(), 60_000, nil)
	if st.Counter("obs/req-traced") == 0 {
		t.Fatal("no requests traced")
	}
	for _, seg := range []string{"l1", "l2-lookup", "dram-service", "ctr-probe-l2", "aes-compute"} {
		if st.Accum("obs/seg/"+seg+"-ns").Count == 0 {
			t.Errorf("segment %s never attributed", seg)
		}
	}
	if st.Accum("obs/sample/mshr-outstanding").Count == 0 {
		t.Error("periodic sampler never fired")
	}
	top := tr.TopRequests()
	if len(top) == 0 {
		t.Fatal("empty top-N table")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Latency() > top[i-1].Latency() {
			t.Fatalf("top-N not sorted: #%d %v > #%d %v", i, top[i].Latency(), i-1, top[i-1].Latency())
		}
	}
	// Spans must lie within the request's lifetime.
	for _, r := range top {
		for _, sp := range r.Spans {
			if sp.Start < r.Start || sp.End > r.End {
				t.Fatalf("request %d: span %s [%v,%v] outside lifetime [%v,%v]",
					r.ID, sp.Seg, sp.Start, sp.End, r.Start, r.End)
			}
		}
	}
}

// TestTraceChromeDeterminism is the tracing contract of DESIGN.md §8: the
// same seed produces a byte-identical Chrome stream (fixed metadata), so
// traces are diffable artifacts.
func TestTraceChromeDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	tracedRun(t, func(c *config.Config) { c.EMCC = true }, workload.TestScale(), 20_000, &a)
	tracedRun(t, func(c *config.Config) { c.EMCC = true }, workload.TestScale(), 20_000, &b)
	if a.Len() == 0 {
		t.Fatal("empty trace stream")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different trace streams (%d vs %d bytes)", a.Len(), b.Len())
	}
	var envelope struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &envelope); err != nil {
		t.Fatalf("trace stream is not valid JSON: %v", err)
	}
	if len(envelope.TraceEvents) == 0 {
		t.Fatal("trace stream has no events")
	}
}

// TestExposedDecryptEMCCBeatsMorphable is the paper's central claim read
// off the tracer: on the same seed, EMCC leaves fewer decrypt/verify
// nanoseconds exposed on the critical path than the Morphable baseline,
// and hides more behind the data block's journey. The default scale makes
// the MC counter cache actually miss — at the miniature test scale it
// covers the whole footprint and the baseline has nothing left to hide.
func TestExposedDecryptEMCCBeatsMorphable(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale run")
	}
	scale := workload.DefaultScale()
	stE, _ := tracedRun(t, func(c *config.Config) { c.EMCC = true }, scale, 60_000, nil)
	stM, _ := tracedRun(t, nil, scale, 60_000, nil)
	expE := stE.Accum("obs/exposed-decrypt-ns")
	expM := stM.Accum("obs/exposed-decrypt-ns")
	if expE.Count == 0 || expM.Count == 0 {
		t.Fatalf("missing exposure samples: emcc n=%d morphable n=%d", expE.Count, expM.Count)
	}
	if expE.Mean() >= expM.Mean() {
		t.Fatalf("EMCC mean exposed decrypt %.2f ns not below morphable %.2f ns", expE.Mean(), expM.Mean())
	}
	ovE := stE.Accum("obs/overlapped-decrypt-ns").Mean()
	ovM := stM.Accum("obs/overlapped-decrypt-ns").Mean()
	if ovE <= ovM {
		t.Fatalf("EMCC mean overlapped decrypt %.2f ns not above morphable %.2f ns", ovE, ovM)
	}
	t.Logf("exposed: emcc %.2f ns < morphable %.2f ns; overlapped: emcc %.2f ns > morphable %.2f ns",
		expE.Mean(), expM.Mean(), ovE, ovM)
}
