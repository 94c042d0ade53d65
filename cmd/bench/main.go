// Command bench runs the performance-critical benchmarks — the event-engine
// micro-benchmarks (prebound vs closure callbacks, a full mixed queue, and
// the queue at the depth and with the mix of events the simulators run),
// the telemetry hot path (histogram record/quantile and the flight-recorder
// interval snapshot), the RMAT graph build every cold graph run pays (on
// every CPU, and on one worker so the single-thread cost stays on record;
// their ratio is the speedup at the artifact's cpus), the DRAM channel
// loop, the cache tag store and the fsim per-reference throughput, the
// tsim end-to-end throughput (single workload and the 4-core co-run), and
// one full verification-harness run (check.Run at 2 k references on one
// goroutine) — and emits one machine-readable JSON artifact. The
// BENCH_*.json files in the repo root record earlier runs (BENCH_22.json
// is the newest); CI regenerates the artifact on every push and uploads it
// for trend inspection.
//
// Each run also diffs itself against the newest committed BENCH_*.json
// (override with -baseline): the artifact's "deltas" list carries the
// per-benchmark ns/op ratio and allocation comparison, and
// -fail-alloc-regress turns allocation growth beyond a fraction into a
// non-zero exit for CI.
//
// Usage:
//
//	go run ./cmd/bench                 # JSON to stdout
//	go run ./cmd/bench -out BENCH.json -count 3
//	go run ./cmd/bench -fail-alloc-regress 0.10   # CI gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suites lists the packages and benchmark selections that feed the
// artifact.
var suites = []struct {
	pkg     string
	pattern string
}{
	{"./internal/sim", "^(BenchmarkEngineTickPrebound|BenchmarkEngineTickClosure|BenchmarkEngineMixedQueue|BenchmarkEngineQueueDepth32)$"},
	{"./internal/metrics", "^(BenchmarkHistObserve|BenchmarkHistQuantile|BenchmarkFlightRecord)$"},
	{"./internal/stats", "^BenchmarkFlightRecordSet$"},
	{"./internal/workload", "^(BenchmarkGraphBuild|BenchmarkGraphBuildSerial)$"},
	{"./internal/check", "^BenchmarkCheckRun$"},
	{".", "^(BenchmarkEventEngine|BenchmarkDRAMRandomReads|BenchmarkCacheLookupInsert|BenchmarkFunctionalSimThroughput|BenchmarkTimingSimThroughput|BenchmarkTimingSimCoRun)$"},
}

// workerAllocs names benchmarks whose allocations grow with the worker
// goroutines GOMAXPROCS allows. Their allocs/op only gate between
// artifacts recorded at the same CPU count.
var workerAllocs = map[string]string{
	"GraphBuild": "the RMAT build starts one worker goroutine per 64 k edges, up to GOMAXPROCS",
}

type benchResult struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type artifact struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CPUs is runtime.NumCPU at measurement time. Wall-clock numbers are
	// only comparable between artifacts recorded at the same CPU count
	// (the graph build and check.Run use every CPU they are given).
	CPUs       int           `json:"cpus"`
	Count      int           `json:"count"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Baseline is the prior artifact the deltas below compare against
	// (the newest BENCH_*.json found, or the -baseline flag), empty when
	// none was found.
	Baseline string `json:"baseline,omitempty"`
	// Deltas holds one entry per benchmark present in both artifacts:
	// the ns/op ratio against the baseline and whether the allocation
	// count regressed. CI gates on these via -fail-alloc-regress.
	Deltas []benchDelta `json:"deltas,omitempty"`
}

// benchDelta compares one benchmark (mean across -count repeats) against
// the same benchmark in the baseline artifact.
type benchDelta struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	// NsRatio is current/baseline: 1.10 means 10% slower than the
	// baseline artifact. Wall-clock is advisory (CI machines vary);
	// allocation counts are deterministic and gate hard.
	NsRatio         float64 `json:"ns_ratio"`
	BaseAllocsPerOp int64   `json:"base_allocs_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	// AllocRegressed marks an allocation-count increase beyond the
	// tolerance handed to computeDeltas (any increase from a 0-alloc
	// baseline always regresses — those are pinned paths).
	AllocRegressed bool `json:"alloc_regressed"`
}

func main() {
	out := flag.String("out", "", "write the JSON artifact here (default stdout)")
	count := flag.Int("count", 1, "benchmark repetitions (-count for go test; the artifact keeps every run)")
	baseline := flag.String("baseline", "",
		"prior artifact to diff against (default: newest BENCH_*.json in the repo root; 'none' disables)")
	failAlloc := flag.Float64("fail-alloc-regress", 0,
		"exit non-zero when any benchmark's allocs/op grew more than this fraction over the baseline (0 disables; CI uses 0.10)")
	flag.Parse()

	art := artifact{
		Tool:      "cmd/bench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Count:     *count,
	}
	for _, s := range suites {
		res, err := runSuite(s.pkg, s.pattern, *count)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", s.pkg, err)
			os.Exit(1)
		}
		art.Benchmarks = append(art.Benchmarks, res...)
	}

	regressed, err := diffBaseline(&art, *baseline, *failAlloc)
	if err != nil {
		// A missing or malformed baseline must not sink a bench run —
		// the fresh numbers are still worth recording.
		fmt.Fprintf(os.Stderr, "bench: baseline diff skipped: %v\n", err)
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(regressed) > 0 {
		fmt.Fprintf(os.Stderr, "bench: allocation regression beyond %.0f%% vs %s in: %s\n",
			*failAlloc*100, art.Baseline, strings.Join(regressed, ", "))
		os.Exit(1)
	}
}

// diffBaseline locates the prior artifact, computes per-benchmark deltas
// into art, and returns the names whose allocation counts regressed beyond
// tol (empty when tol is 0 — deltas are then informational only).
func diffBaseline(art *artifact, path string, tol float64) ([]string, error) {
	if path == "none" {
		return nil, nil
	}
	if path == "" {
		var err error
		if path, err = newestArtifact("."); err != nil || path == "" {
			return nil, err
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base artifact
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	art.Baseline = path
	art.Deltas = computeDeltas(base.Benchmarks, art.Benchmarks, tol)
	var regressed []string
	for i, d := range art.Deltas {
		if !d.AllocRegressed {
			continue
		}
		if base.CPUs != art.CPUs && workerAllocs[d.Name] != "" {
			art.Deltas[i].AllocRegressed = false
			continue
		}
		if tol > 0 {
			regressed = append(regressed, d.Name)
		}
	}
	return regressed, nil
}

// newestArtifact returns the BENCH_*.json with the highest PR number in
// dir, or "" when there is none.
func newestArtifact(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		numeral := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), "BENCH_"), ".json")
		n, err := strconv.Atoi(numeral)
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best, nil
}

// computeDeltas joins two benchmark lists by name (means across repeats)
// and flags allocation regressions beyond tol. A benchmark only present on
// one side produces no delta: new benchmarks have no history, retired ones
// no current number.
func computeDeltas(base, cur []benchResult, tol float64) []benchDelta {
	type agg struct {
		ns     float64
		allocs int64
		n      int64
	}
	fold := func(list []benchResult) (map[string]*agg, []string) {
		m := map[string]*agg{}
		var order []string
		for _, b := range list {
			a := m[b.Name]
			if a == nil {
				a = &agg{}
				m[b.Name] = a
				order = append(order, b.Name)
			}
			a.ns += b.NsPerOp
			a.allocs += b.AllocsPerOp
			a.n++
		}
		return m, order
	}
	baseBy, _ := fold(base)
	curBy, order := fold(cur)
	var deltas []benchDelta
	for _, name := range order {
		b, c := baseBy[name], curBy[name]
		if b == nil {
			continue
		}
		d := benchDelta{
			Name:            name,
			BaseNsPerOp:     b.ns / float64(b.n),
			NsPerOp:         c.ns / float64(c.n),
			BaseAllocsPerOp: b.allocs / b.n,
			AllocsPerOp:     c.allocs / c.n,
		}
		if d.BaseNsPerOp > 0 {
			d.NsRatio = d.NsPerOp / d.BaseNsPerOp
		}
		// Deterministic pools make allocs/op exact: from a 0-alloc
		// baseline any allocation regresses; otherwise apply the
		// fractional tolerance.
		if d.BaseAllocsPerOp == 0 {
			d.AllocRegressed = d.AllocsPerOp > 0
		} else {
			d.AllocRegressed = float64(d.AllocsPerOp) > float64(d.BaseAllocsPerOp)*(1+tol)
		}
		deltas = append(deltas, d)
	}
	return deltas
}

// runSuite executes one `go test -bench` invocation and parses its
// standard output into results.
func runSuite(pkg, pattern string, count int) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench", pattern,
		"-benchmem", "-count", strconv.Itoa(count), pkg)
	outBuf, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test: %v\n%s", err, outBuf)
	}
	var res []benchResult
	for _, line := range strings.Split(string(outBuf), "\n") {
		r, ok := parseBenchLine(pkg, line)
		if ok {
			res = append(res, r)
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q\n%s", pattern, outBuf)
	}
	return res, nil
}

// parseBenchLine decodes one textual benchmark result, e.g.
//
//	BenchmarkEngineTickPrebound-8  18571428  63.03 ns/op  0 B/op  0 allocs/op
func parseBenchLine(pkg, line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Package: pkg, Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return r, true
}
