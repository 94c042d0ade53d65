package main

import (
	"errors"
	"io"
	"testing"
)

// TestSummarize pins the quartiles to Python's statistics.quantiles
// (method "exclusive"), which an external checker applies to the same runs.
func TestSummarize(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		s := summarize(c.in)
		if s.Q1 != c.q1 || s.Median != c.m || s.Q3 != c.q3 || s.N != len(c.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", c.in, s, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name  string
		old   []float64
		cur   []float64
		lower bool
		bound float64
		want  string
	}{
		{"same within noise", steady, []float64{10.1, 10.2, 10, 10.1, 10.15}, true, 0.10, same},
		{"slower within bound", steady, []float64{10.8, 10.9, 10.7, 10.8, 10.85}, true, 0.10, same},
		{"slower beyond bound", steady, []float64{12, 12.1, 11.9, 12, 12.05}, true, 0.10, worse},
		{"faster beyond the spread", steady, []float64{9, 9.1, 8.9, 9, 9.05}, true, 0.10, improved},
		{"faster inside the spread", steady, []float64{9.98, 10.08, 9.88, 9.98, 10.03}, true, 0.10, same},
		{"higher is better, dropped", steady, []float64{8, 8.1, 7.9, 8, 8.05}, false, 0.10, worse},
		{"higher is better, rose", steady, []float64{12, 12.1, 11.9, 12, 12.05}, false, 0.10, improved},
		{"old too noisy", []float64{6, 10, 14, 8, 12}, []float64{10, 10, 10, 10, 10}, true, 0.10, unresolved},
		{"new too noisy", steady, []float64{6, 10, 14, 8, 12}, true, 0.10, unresolved},
		{"noisy but every run better", []float64{10, 14, 18, 12, 16}, []float64{5, 5.1, 4.9, 5, 5.05}, true, 0.10, improved},
		{"no samples", nil, steady, true, 0.10, unresolved},
	}
	for _, c := range cases {
		if got := verdict(c.old, c.cur, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// fakeRuns builds one artifact per wall time, each a run of one correct
// pass that reported that wall_s.
func fakeRuns(cpus int, walls ...float64) []*artifact {
	var arts []*artifact
	for _, w := range walls {
		arts = append(arts, &artifact{
			Tool: artifactTool, Workload: "w", CPUs: cpus,
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {Value: w, Unit: "s"}}},
			Passes: []pass{{Units: []unitRun{{WallS: w}}}},
		})
	}
	return arts
}

// failedRuns builds n artifacts of one pass whose unit failed.
func failedRuns(n int) []*artifact {
	arts := fakeRuns(2, make([]float64, n)...)
	for _, a := range arts {
		a.Correct, a.Failed = false, 1
		a.Passes[0].Units[0].Err = "boom"
	}
	return arts
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	spec.EndToEnd = append(spec.EndToEnd, struct {
		metric
		Bound float64 `json:"bound"`
	}{metric{"wall_s", "s", "lower"}, 0.10})

	old := fakeRuns(2, 10, 10.1, 9.9, 10, 10.05)
	oldOneFailed := append(fakeRuns(2, 10, 10.1, 9.9, 10, 10.05), failedRuns(1)...)
	cases := []struct {
		name         string
		old, cur     []*artifact
		want         string
		newN, failed int // new side: correct runs pooled, passes failed
	}{
		{"slower beyond bound", old, fakeRuns(2, 12, 12.1, 11.9, 12, 12.05), worse, 5, 0},
		{"same", old, fakeRuns(2, 10, 10.1, 9.9, 10, 10.05), same, 5, 0},
		// Failed runs are left out of the pool, and failing more passes is
		// worse even when the correct runs are faster.
		{"faster but a pass failed", old, append(fakeRuns(2, 9, 9.1, 8.9, 9, 9.05), failedRuns(1)...), worse, 5, 1},
		{"every new run failed", old, failedRuns(3), worse, 0, 3},
		{"no more failures than before", oldOneFailed, append(fakeRuns(2, 10, 10.1, 9.9, 10, 10.05), failedRuns(1)...), same, 5, 1},
		{"fewer failures than before", oldOneFailed, fakeRuns(2, 10, 10.1, 9.9, 10, 10.05), same, 5, 0},
	}
	for _, c := range cases {
		rows, err := compare(c.old, c.cur, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		r := rows[0]
		if r.Verdict != c.want || r.New.N != c.newN || r.NewPasses.Failed != c.failed ||
			r.NewPasses.Attempted != c.newN+c.failed {
			t.Errorf("%s: %s, new n %d, new passes %+v; want %s, n %d, %d failed",
				c.name, r.Verdict, r.New.N, r.NewPasses, c.want, c.newN, c.failed)
		}
		if code := printComparison(rows, io.Discard); (code == 1) != (c.want == worse) {
			t.Errorf("%s: compare exits %d on a %s pair", c.name, code, r.Verdict)
		}
	}

	_, err := compare(old, fakeRuns(4, 10), spec)
	if !errors.Is(err, errCPUs) {
		t.Fatalf("compare across CPU counts: err = %v, want %v", err, errCPUs)
	}
}
