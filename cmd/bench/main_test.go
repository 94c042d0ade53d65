package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("./internal/sim",
		"BenchmarkEngineTickPrebound-8  18571428  63.03 ns/op  5 B/op  2 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "EngineTickPrebound" || r.Iterations != 18571428 ||
		r.NsPerOp != 63.03 || r.BytesPerOp != 5 || r.AllocsPerOp != 2 {
		t.Fatalf("parsed %+v", r)
	}
	// Sub-benchmark names keep their '=' segments; only the trailing
	// -GOMAXPROCS is stripped.
	r, ok = parseBenchLine(".", "BenchmarkTimingSimCoRun/domains=8+cores-4  100  2500 ns/op")
	if !ok || r.Name != "TimingSimCoRun/domains=8+cores" {
		t.Fatalf("sub-benchmark name parsed as %q", r.Name)
	}
	if _, ok := parseBenchLine(".", "ok  \trepro\t9.977s"); ok {
		t.Fatal("non-benchmark line parsed")
	}
}

func TestNewestArtifact(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_5.json", "BENCH_10.json", "BENCH_8.json", "BENCH_x.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestArtifact(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric ordering, not lexical: 10 > 8, and the malformed suffix is
	// skipped.
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("newest = %q, want BENCH_10.json", got)
	}
	empty := t.TempDir()
	if got, err := newestArtifact(empty); err != nil || got != "" {
		t.Fatalf("empty dir: got %q, %v", got, err)
	}
}

func TestComputeDeltas(t *testing.T) {
	base := []benchResult{
		{Name: "A", NsPerOp: 100, AllocsPerOp: 10},
		{Name: "A", NsPerOp: 120, AllocsPerOp: 10}, // repeats are averaged
		{Name: "ZeroAlloc", NsPerOp: 50, AllocsPerOp: 0},
		{Name: "Tolerated", NsPerOp: 10, AllocsPerOp: 100},
		{Name: "Retired", NsPerOp: 1, AllocsPerOp: 1},
	}
	cur := []benchResult{
		{Name: "A", NsPerOp: 220, AllocsPerOp: 10},
		{Name: "ZeroAlloc", NsPerOp: 50, AllocsPerOp: 1},
		{Name: "Tolerated", NsPerOp: 10, AllocsPerOp: 105},
		{Name: "Brand-new", NsPerOp: 7, AllocsPerOp: 0},
	}
	deltas := computeDeltas(base, cur, 0.10)
	byName := map[string]benchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas (%v), want 3: unmatched names must not join", len(deltas), byName)
	}
	a := byName["A"]
	if a.BaseNsPerOp != 110 || a.NsRatio != 2.0 || a.AllocRegressed {
		t.Fatalf("A delta %+v: want mean-110 baseline, ratio 2.0, no alloc regression", a)
	}
	// Any allocation on a 0-alloc pinned path regresses, tolerance or not.
	if !byName["ZeroAlloc"].AllocRegressed {
		t.Fatal("0-alloc baseline growing to 1 alloc/op must regress")
	}
	// 5% growth sits inside the 10% tolerance.
	if byName["Tolerated"].AllocRegressed {
		t.Fatal("5% allocation growth flagged despite 10% tolerance")
	}
}

// TestDiffBaselineWorkerAllocs pins that a worker-parallel benchmark's
// allocations gate only against a baseline recorded at the same CPU
// count: the RMAT build allocates per worker goroutine, so more CPUs
// legitimately mean more allocations. Other benchmarks gate at any count.
func TestDiffBaselineWorkerAllocs(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_1.json")
	buf, err := json.Marshal(artifact{CPUs: 2, Benchmarks: []benchResult{
		{Name: "GraphBuild", NsPerOp: 1, AllocsPerOp: 13},
		{Name: "TimingSimThroughput", NsPerOp: 1, AllocsPerOp: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cpus, simAllocs int
		want            string
	}{
		{4, 0, ""},
		{4, 1, "TimingSimThroughput"},
		{2, 0, "GraphBuild"},
	} {
		art := artifact{CPUs: c.cpus, Benchmarks: []benchResult{
			{Name: "GraphBuild", NsPerOp: 1, AllocsPerOp: 18},
			{Name: "TimingSimThroughput", NsPerOp: 1, AllocsPerOp: int64(c.simAllocs)},
		}}
		regressed, err := diffBaseline(&art, base, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(regressed, ","); got != c.want {
			t.Errorf("%d CPUs, %d sim allocs: regressed %q, want %q", c.cpus, c.simAllocs, got, c.want)
		}
	}
}
