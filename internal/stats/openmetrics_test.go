package stats

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// Set must satisfy the flight-recorder source contract.
var _ metrics.Source = (*Set)(nil)

func TestVisitOrderIsSorted(t *testing.T) {
	s := NewSet()
	s.Add("z/one", 1)
	s.Add("a/two", 2)
	s.Add("m/zero", 0) // zero-valued: invisible
	s.HistRef("z/h").Observe(10)
	s.HistRef("a/h").Observe(20)
	s.HistRef("bound-empty") // never observed: invisible

	var counters, hists []string
	s.VisitCounters(func(name string, v int64) { counters = append(counters, name) })
	s.VisitHists(func(name string, h *metrics.Hist) { hists = append(hists, name) })
	if len(counters) != 2 || counters[0] != "a/two" || counters[1] != "z/one" {
		t.Fatalf("counter order: %v", counters)
	}
	if len(hists) != 2 || hists[0] != "a/h" || hists[1] != "z/h" {
		t.Fatalf("hist order: %v", hists)
	}
}

func TestFlightRecorderOverSet(t *testing.T) {
	s := NewSet()
	rec := metrics.NewRecorder(s, 8)
	s.Add("c", 3)
	s.HistRef("h").Observe(50)
	rec.Record(100)
	s.Add("c", 4)
	rec.Record(200)
	ivs := rec.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("%d intervals, want 2", len(ivs))
	}
	if ivs[0].Counters[0].Delta != 3 || ivs[1].Counters[0].Delta != 4 {
		t.Fatalf("counter deltas: %+v / %+v", ivs[0].Counters, ivs[1].Counters)
	}
	if len(ivs[0].Hists) != 1 || ivs[0].Hists[0].Sum != 50 {
		t.Fatalf("hist delta: %+v", ivs[0].Hists)
	}
	if len(ivs[1].Hists) != 0 {
		t.Fatalf("quiet hist interval not empty: %+v", ivs[1].Hists)
	}
}

func TestWriteOpenMetrics(t *testing.T) {
	s := NewSet()
	s.Add("tsim/load", 10)
	s.Observe("tsim/l2-read-miss-latency-ns", 120)
	s.HistRef("obs/hist/req-latency-ns").Observe(7)
	s.HistRef("obs/hist/req-latency-ns").Observe(100)

	var b bytes.Buffer
	if err := s.Snapshot().WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE tsim_load counter\n",
		"tsim_load_total 10\n",
		"tsim_l2_read_miss_latency_ns_count 1\n",
		"tsim_l2_read_miss_latency_ns_mean 120\n",
		"# TYPE obs_hist_req_latency_ns histogram\n",
		"obs_hist_req_latency_ns_bucket{le=\"7\"} 1\n",
		"obs_hist_req_latency_ns_bucket{le=\"+Inf\"} 2\n",
		"obs_hist_req_latency_ns_sum 107\n",
		"obs_hist_req_latency_ns_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing OpenMetrics terminator:\n%s", out)
	}
	// The cumulative bucket for the second sample covers both.
	hi := metrics.BucketUpper(metrics.BucketIndex(100)) - 1
	if !strings.Contains(out, "obs_hist_req_latency_ns_bucket{le=\""+itoa(hi)+"\"} 2\n") {
		t.Fatalf("missing cumulative bucket at le=%d:\n%s", hi, out)
	}

	// Determinism: two renders are byte-identical.
	var b2 bytes.Buffer
	if err := s.Snapshot().WriteOpenMetrics(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), b2.Bytes()) {
		t.Fatal("OpenMetrics output not deterministic")
	}
}

func itoa(v int64) string {
	var buf [20]byte
	i := len(buf)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkFlightRecordSet(b *testing.B) {
	s := NewSet()
	for i := 0; i < 60; i++ {
		s.Add("bench/counter-"+itoa(int64(i)), int64(i+1))
	}
	s.HistRef(ObsReqLatencyHist).Observe(100)
	s.HistRef(ObsExposedDecryptHist).Observe(40)
	rec := metrics.NewRecorder(s, 1024)
	bump := s.CounterRef(TsimLoad)
	h := s.HistRef(ObsReqLatencyHist)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*bump++
		h.Observe(int64(i) & 0x3ff)
		rec.Record(int64(i))
	}
}
