package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestCounters(t *testing.T) {
	s := NewSet()
	s.Inc("a")
	s.Add("a", 4)
	if got := s.Counter("a"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := s.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestAccumulator(t *testing.T) {
	s := NewSet()
	for _, v := range []float64{1, 2, 3, 4} {
		s.Observe("lat", v)
	}
	a := s.Accum("lat")
	if a.Count != 4 || a.Mean() != 2.5 || a.Min != 1 || a.Max != 4 {
		t.Fatalf("accum = %+v mean=%v", a, a.Mean())
	}
	if s.Accum("missing").Mean() != 0 {
		t.Fatal("missing accum mean should be 0")
	}
}

func TestHistCells(t *testing.T) {
	s := NewSet()
	h := s.HistRef("lat")
	for _, v := range []int64{3, 40, 40, 5000} {
		h.Observe(v)
	}
	// HistRef returns the same cell; Hist reads it.
	if s.HistRef("lat") != h {
		t.Fatal("HistRef did not return the bound cell")
	}
	if got := s.Hist("lat").Count(); got != 4 {
		t.Fatalf("Hist count = %d, want 4", got)
	}
	if s.Hist("missing").Count() != 0 {
		t.Fatal("missing hist should read as empty")
	}
	// Bound-but-empty cells stay invisible; observed ones show up.
	s.HistRef("never-observed")
	names := s.Names()
	want := []string{"hist/lat"}
	if len(names) != 1 || names[0] != want[0] {
		t.Fatalf("names = %v, want %v", names, want)
	}
}

func TestReset(t *testing.T) {
	s := NewSet()
	s.Inc("a")
	s.Observe("b", 1)
	s.HistRef("c").Observe(5)
	s.Reset()
	if s.Counter("a") != 0 || s.Accum("b").Count != 0 {
		t.Fatal("reset did not clear metrics")
	}
	if len(s.Names()) != 0 {
		t.Fatalf("names after reset: %v", s.Names())
	}
}

// TestResetKeepsBoundCells: Reset zeroes cells in place, so a cell bound
// before it keeps counting into the set, an accumulator observed after it
// reports the new samples' min and max, and the reset set renders like an
// empty one.
func TestResetKeepsBoundCells(t *testing.T) {
	s := NewSet()
	c := s.CounterRef("c")
	a := s.AccumRef("a")
	h := s.HistRef("h")
	*c += 3
	a.Observe(-100)
	a.Observe(100)
	h.Observe(7)
	s.Inc("unbound")
	s.Reset()

	got, err := s.Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSet().Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reset set renders\n%s\nwant the empty set's\n%s", got, want)
	}

	*c++
	a.Observe(5)
	a.Observe(2)
	h.Observe(9)
	if s.Counter("c") != 1 {
		t.Errorf("counter bound before Reset = %d, want 1", s.Counter("c"))
	}
	if got := *s.Accum("a"); got != (Accumulator{Count: 2, Sum: 7, Min: 2, Max: 5}) {
		t.Errorf("accumulator after Reset = %+v, want count 2, sum 7, min 2, max 5", got)
	}
	if n := s.Hist("h").Count(); n != 1 {
		t.Errorf("histogram bound before Reset holds %d samples, want 1", n)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Fatalf("geomean = %v, want 10", got)
	}
	// Non-positive values are skipped.
	if got := GeoMean([]float64{0, -5, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Fatalf("geomean with skips = %v, want 6", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("geomean of empty should be 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty should be 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("mean = %v, want 3", got)
	}
}

func TestDumpIncludesMetrics(t *testing.T) {
	s := NewSet()
	s.Inc("x/y")
	s.Observe("z", 2)
	d := s.Dump()
	if len(d) == 0 {
		t.Fatal("dump is empty")
	}
}

func TestSnapshotRoundTripsJSON(t *testing.T) {
	s := NewSet()
	s.Add("x", 7)
	s.Observe("y", 2.5)
	s.HistRef("h").Observe(100)
	snap := s.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x"] != 7 || back.Accums["y"].Mean != 2.5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Hist("h").Count != 1 || back.Hist("h").Quantile(0.5) != snap.Hist("h").Quantile(0.5) {
		t.Fatalf("histogram lost in round trip: %+v", back.Hists)
	}
	// Snapshot is a copy: mutating the set afterwards must not affect it.
	s.Add("x", 100)
	if snap.Counters["x"] != 7 {
		t.Fatal("snapshot aliases live counters")
	}
}

func TestSnapshotAccessorsMatchSet(t *testing.T) {
	s := NewSet()
	s.Add("hits", 41)
	s.Observe("lat", 3)
	s.Observe("lat", 5)
	snap := s.Snapshot()
	if snap.Counter("hits") != s.Counter("hits") {
		t.Fatalf("Counter mismatch: %d vs %d", snap.Counter("hits"), s.Counter("hits"))
	}
	if snap.AccumMean("lat") != s.Accum("lat").Mean() {
		t.Fatalf("AccumMean mismatch: %g vs %g", snap.AccumMean("lat"), s.Accum("lat").Mean())
	}
	if snap.Counter("absent") != 0 || snap.AccumMean("absent") != 0 {
		t.Fatal("absent metrics not zero")
	}
	var zero Snapshot
	if zero.Counter("x") != 0 || zero.AccumMean("x") != 0 {
		t.Fatal("zero-value snapshot accessors not zero")
	}
}

func TestSnapshotDumpSurvivesRoundTrip(t *testing.T) {
	s := NewSet()
	s.Add("b/count", 3)
	s.Add("a/count", 1)
	s.Observe("c/lat", 7.5)
	s.HistRef("d/hist").Observe(42)
	snap := s.Snapshot()
	if s.Dump() != snap.Dump() {
		t.Fatal("live and snapshot dumps differ")
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Dump() != snap.Dump() {
		t.Fatalf("dump changed across JSON round trip:\n%s\nvs\n%s", snap.Dump(), back.Dump())
	}
}
