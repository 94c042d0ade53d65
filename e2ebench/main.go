// Command e2ebench is the repository's end-to-end benchmark. It times the
// runs users wait for — simulations on both simulators at a sixteenth of the
// paper's figure budgets, a figure sweep through the result cache, and the
// verification harness — on five named workloads, checks every run's
// output, and reports each unit's faster repeats over many passes, which a
// host whose speed drifts reproduces more closely from run to run than one
// long pass. A traced run reports per-layer metrics instead, measured from
// outside the simulator: spans around calls into each package's public
// functions, exact counts from stats snapshots and the event engine, and
// in-process probes of each layer's unit cost. BENCHMARK.json at the
// repository root names the workloads and metrics and fixes the bounds the
// compare subcommand judges two sets of runs by. README.md has the tables.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload paper-pair --seed 1 --seconds 25 --trace 0
//	bash e2ebench/run.sh --workload paper-pair --trace 1     # per-layer metrics + Chrome trace
//	bash e2ebench/run.sh compare OLD NEW                     # artifacts or directories of them
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics with their units. A human-readable report goes to
// standard error, and the full artifact (every pass, unit and span) to
// <dir>/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

func main() {
	if spec := os.Getenv(unitEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// artifact is everything one run measured, written to <dir>/results.
type artifact struct {
	Tool      string  `json:"tool"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	CPUs      int     `json:"cpus"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	result
	// Summaries holds the median, quartiles and count of each metric's
	// per-pass samples. The reported value is their median, except wall_s.
	Summaries map[string]summary `json:"summaries"`
	// PaperGapPP is |canneal EMCC gain over Morphable - 12.5| in percentage
	// points, for the workloads that run that pair.
	PaperGapPP *float64             `json:"paper_gap_pp,omitempty"`
	Spans      map[string]spanTotal `json:"spans,omitempty"`
	Passes     []pass               `json:"passes"`
	Probes     *unitRun             `json:"probes,omitempty"`
}

const artifactTool = "e2ebench"

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: one of paper-pair, graph-cold, counting, sweep, verify")
	seed := fs.Uint64("seed", 1, "workload seed; 1 is cmd/report's seed, 7 is held out for confirming claims")
	seconds := fs.Float64("seconds", 25, "time budget of the measured passes")
	traceLevel := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for artifacts, traces and scratch caches")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return compareMain(fs.Args()[1:], stdout, stderr)
	}
	if fs.NArg() > 0 || *traceLevel < 0 || *traceLevel > 1 || !(*seconds > 0) {
		fmt.Fprintln(stderr, "e2ebench: want --workload NAME [--seed N] [--seconds S] [--trace 0|1], or compare OLD NEW")
		return 2
	}
	us, err := units(*name, *seed, size)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	opt := runOptions{workload: *name, seed: *seed, seconds: *seconds, trace: *traceLevel == 1, dir: *dir}
	art, err := runBench(opt, us, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(art.result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runBench measures one workload and writes the artifact (and, traced, the
// Chrome trace) under opt.dir.
func runBench(opt runOptions, us []unitSpec, logw io.Writer) (*artifact, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(opt.dir, "results")
	sp := spawner{exe: exe, workDir: filepath.Join(opt.dir, "work")}
	for _, d := range []string{out, sp.workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	log := func(format string, args ...any) { fmt.Fprintf(logw, "e2ebench: "+format+"\n", args...) }
	log("%s seed %d, %d CPUs, %s", opt.workload, opt.seed, runtime.NumCPU(), runtime.Version())

	art := &artifact{
		Tool: artifactTool, Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		CPUs: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Summaries: map[string]summary{},
	}
	start := time.Now()
	art.Passes = measure(opt, us, sp, start, log)
	if opt.trace {
		// Probes run after the units, outside every timed pass.
		p := sp.run(probeSpec(us, size))
		if p.Err != "" {
			log("probes failed: %s", p.Err)
		}
		art.Probes = &p
	}

	var all []unitRun
	for _, p := range art.Passes {
		all = append(all, p.Units...)
	}
	if art.Probes != nil {
		all = append(all, *art.Probes)
	}
	for _, u := range all {
		art.Attempted++
		if u.Err != "" {
			art.Failed++
		}
	}

	// One sample per metric from every fully correct pass of the run's
	// kind: end-to-end values from plain passes, per-layer values from
	// traced ones.
	samples := map[string][]float64{}
	walls := map[bool][]float64{} // pass wall times, by traced
	var plain []pass
	for _, p := range art.Passes {
		if !p.ok() {
			continue
		}
		vals := e2eValues(p)
		walls[p.Traced] = append(walls[p.Traced], vals["wall_s"])
		if g, ok := cannealGainPct(p); ok && art.PaperGapPP == nil {
			gap := math.Abs(g - paperCannealGainPct)
			art.PaperGapPP = &gap
		}
		if p.Traced != opt.trace {
			continue
		}
		if opt.trace {
			vals = layerValues(p, art.Probes.Res.Probes)
		} else {
			plain = append(plain, p)
		}
		for k, x := range vals {
			samples[k] = append(samples[k], x)
		}
	}
	declared := endToEnd
	values := map[string]float64{}
	if opt.trace {
		declared = perLayer
		samples["bench.trace_overhead_frac"] = []float64{
			ratio(summarize(walls[true]).Median, summarize(walls[false]).Median) - 1}
		for k, xs := range samples {
			values[k] = summarize(xs).Median
		}
	} else {
		values = e2eMetrics(plain)
	}
	art.Metrics = map[string]metricValue{}
	for _, m := range declared {
		s, v := summarize(samples[m.Name]), values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			log("metric %s is not finite", m.Name)
			art.Failed++
			s, v = summary{}, 0
		}
		art.Summaries[m.Name] = s
		art.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	art.Correct = art.Failed == 0 && len(samples) > 0

	stamp := fmt.Sprintf("%s-seed%d-%d", opt.workload, opt.seed, time.Now().UnixNano())
	if opt.trace {
		stamp += "-traced"
		spans := allSpans(art.Passes, art.Probes)
		art.Spans = spanTotals(spans)
		tracePath := filepath.Join(out, stamp+".trace.json")
		if err := writeChromeTrace(tracePath, spans); err != nil {
			return nil, err
		}
		log("trace: %s", tracePath)
	}
	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return nil, err
	}
	artPath := filepath.Join(out, stamp+".json")
	if err := os.WriteFile(artPath, append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	report(art, declared, logw)
	log("artifact: %s", artPath)
	return art, nil
}

// report prints the run's metrics for a reader.
func report(art *artifact, declared []metric, w io.Writer) {
	fmt.Fprintf(w, "\n%s seed %d: %d units attempted, %d failed, %d CPUs\n",
		art.Workload, art.Seed, art.Attempted, art.Failed, art.CPUs)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, m := range declared {
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\tpasses: %s\n", m.Name, m.Unit, art.Metrics[m.Name].Value,
			fmtSummary(art.Summaries[m.Name]))
	}
	tw.Flush()
	if art.PaperGapPP != nil {
		fmt.Fprintf(w, "  paper gap (canneal emcc gain vs %.1f%%): %.2f pp\n", paperCannealGainPct, *art.PaperGapPP)
	}
	var cal []float64
	for _, p := range art.Passes {
		cal = append(cal, p.CalibrationMS)
	}
	fmt.Fprintf(w, "  host calibration ms: %s\n\n", fmtSummary(summarize(cal)))
}
