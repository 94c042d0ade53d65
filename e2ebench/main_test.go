package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes it with unitEnv set, exactly as it does itself.
func TestMain(m *testing.M) {
	if spec := os.Getenv(unitEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// miniSizing runs every workload at miniature budgets. The timing budgets
// keep figures.Harness's RefsOverride shape (warm-up RefsOverride/2, refs
// RefsOverride/4), so the parity test can size a harness to match.
func miniSizing() sizing {
	sc := workload.TestScale()
	tb := budget{Warmup: 4000, Refs: 2000, Scale: sc}
	return sizing{
		Pair: tb, Graph: tb,
		Count:     budget{Warmup: 2000, Refs: 4000, Scale: sc},
		SweepRefs: 4000, SweepScale: sc,
		CheckRefs: 2000,
		ProbeOps:  2000,
	}
}

func useMiniSizing(t *testing.T) {
	t.Helper()
	saved := size
	size = miniSizing()
	t.Cleanup(func() { size = saved })
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runMain runs the benchmark command and decodes the result line.
func runMain(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := benchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%v: correct %v, %d of %d failed\n%s", args, r.Correct, r.Failed, r.Attempted, stderr.String())
	}
	return r
}

// TestSmoke runs every workload of BENCHMARK.json, untraced and traced, at
// miniature budgets, and holds the output to the declared metrics: each one
// emitted with its unit, and nothing undeclared.
func TestSmoke(t *testing.T) {
	useMiniSizing(t)
	spec := loadRepoSpec(t)
	dir := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			r := runMain(t, "-workload", w.Name, "-seconds", "0.001", "-trace", traced, "-dir", dir)
			want := map[string]string{}
			if traced == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			got := map[string]string{}
			for name, v := range r.Metrics {
				got[name] = v.Unit
				if traced == "0" && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
				}
			}
			for name, unit := range want {
				if got[name] != unit {
					t.Errorf("%s trace %s: metric %s has unit %q, want %q", w.Name, traced, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace %s: undeclared metric %s", w.Name, traced, name)
				}
			}
		}
	}
	traces, err := filepath.Glob(filepath.Join(dir, "results", "*.trace.json"))
	if err != nil || len(traces) != len(spec.Workloads) {
		t.Fatalf("want one trace per workload, got %v (%v)", traces, err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	buf, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &tr); err != nil || len(tr.TraceEvents) == 0 {
		t.Fatalf("%s: not a Chrome trace with events: %v", traces[0], err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric tables of this
// package and to the limits the benchmark's definition must respect.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadRepoSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	var e2e []metric
	maxOther := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", e2e, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound <= maxOther {
			t.Errorf("setup_s bound %v must be the largest (others up to %v)", m.Bound, maxOther)
		}
	}
}

// TestRefusesIncompleteCheckout runs the wrapper in a directory holding only
// BENCHMARK.json and the benchmark's own files: it must fail without
// printing a result.
func TestRefusesIncompleteCheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "e2ebench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"../BENCHMARK.json", "run.sh", "go.mod"} {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "e2ebench", filepath.Base(f))
		if f == "../BENCHMARK.json" {
			dst = filepath.Join(dir, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "e2ebench/run.sh", "--workload", "paper-pair", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded in a directory without the repository")
	}
	if stdout.Len() != 0 {
		t.Errorf("run.sh printed %q to standard output", stdout.String())
	}
}
