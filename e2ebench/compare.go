package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metric
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadArtifacts reads one artifact file, or every artifact in a directory.
// Traced runs carry no end-to-end samples and are skipped.
func loadArtifacts(path string) ([]*artifact, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var arts []*artifact
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var a artifact
		if err := json.Unmarshal(buf, &a); err != nil || a.Tool != artifactTool {
			return nil, fmt.Errorf("%s: not an %s artifact", f, artifactTool)
		}
		if !a.Trace {
			arts = append(arts, &a)
		}
	}
	if len(arts) == 0 {
		return nil, fmt.Errorf("%s: no untraced %s artifacts", path, artifactTool)
	}
	return arts, nil
}

// passCount counts one side's untraced passes of a workload.
type passCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// failsMore reports whether a larger share of c's passes failed than of
// o's. A side whose every pass failed, against one with a correct pass, is
// the extreme case.
func (c passCount) failsMore(o passCount) bool {
	return c.Failed*o.Attempted > o.Failed*c.Attempted
}

// comparison is the verdict on one (workload, metric) pair.
type comparison struct {
	Workload, Metric     string
	Old, New             summary
	OldPasses, NewPasses passCount
	Verdict              string
}

// errCPUs refuses a comparison across hosts of different CPU counts: the
// sweep and verify workloads run two workers, so their times depend on it.
var errCPUs = errors.New("artifacts were recorded at different CPU counts")

// compare pools, on each side, the values the correct untraced runs
// reported, one sample per run, and judges each (workload, end-to-end
// metric) pair against the metric's bound in spec. A time saved does not
// count when more work failed: a pair is worse whenever the new side failed
// a larger share of its passes, whatever its correct runs say.
func compare(old, cur []*artifact, spec *benchSpec) ([]comparison, error) {
	cpus := old[0].CPUs
	for _, a := range append(append([]*artifact(nil), old...), cur...) {
		if a.CPUs != cpus {
			return nil, fmt.Errorf("%w: %d and %d", errCPUs, cpus, a.CPUs)
		}
	}
	pool := func(arts []*artifact, workload, name string) ([]float64, passCount) {
		var xs []float64
		var n passCount
		for _, a := range arts {
			if a.Workload != workload {
				continue
			}
			for _, p := range a.Passes {
				n.Attempted++
				if !p.ok() {
					n.Failed++
				}
			}
			if a.Correct {
				xs = append(xs, a.Metrics[name].Value)
			}
		}
		return xs, n
	}
	var out []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, on := pool(old, w.Name, m.Name)
			c, cn := pool(cur, w.Name, m.Name)
			if on.Attempted == 0 && cn.Attempted == 0 {
				continue
			}
			v := verdict(o, c, m.Better == "lower", m.Bound)
			if cn.failsMore(on) {
				v = worse
			}
			out = append(out, comparison{
				Workload: w.Name, Metric: m.Name, Old: summarize(o), New: summarize(c),
				OldPasses: on, NewPasses: cn, Verdict: v,
			})
		}
	}
	return out, nil
}

// compareMain prints a verdict per (workload, metric) and exits 1 when any
// pair got worse beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "e2ebench compare: want OLD NEW (artifact files or directories of them)")
		return 2
	}
	rows, err := compareFiles(*specPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench compare:", err)
		return 2
	}
	return printComparison(rows, stdout)
}

func compareFiles(specPath, oldPath, newPath string) ([]comparison, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	old, err := loadArtifacts(oldPath)
	if err != nil {
		return nil, err
	}
	cur, err := loadArtifacts(newPath)
	if err != nil {
		return nil, err
	}
	return compare(old, cur, spec)
}

// printComparison prints one row per pair, with each side's median,
// quartiles and count of correct runs, and how many of its passes failed;
// it returns 1 when any pair is worse.
func printComparison(rows []comparison, w io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1 q3] n\tfailed\tnew median [q1 q3] n\tfailed\tverdict")
	cell := func(s summary) string {
		return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
	}
	failed := func(n passCount) string { return fmt.Sprintf("%d/%d", n.Failed, n.Attempted) }
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", r.Workload, r.Metric,
			cell(r.Old), failed(r.OldPasses), cell(r.New), failed(r.NewPasses), r.Verdict)
		if r.Verdict == worse {
			code = 1
		}
	}
	tw.Flush()
	return code
}
