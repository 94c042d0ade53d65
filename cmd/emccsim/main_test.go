package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is the common prefix of every run here: the miniature scale and a
// short budget keep each simulation well under a second.
var small = []string{"-small", "-bench", "canneal", "-system", "emcc", "-refs", "3000"}

func runArgs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append(append([]string{}, small...), args...), &out)
	return out.String(), err
}

// TestTracingNeedsTimingMode: -trace and -flight attach to the timing
// simulator only, so a functional run with either is an error naming
// -mode, and it writes nothing.
func TestTracingNeedsTimingMode(t *testing.T) {
	dir := t.TempDir()
	for _, opt := range []string{"-trace", "-flight"} {
		path := filepath.Join(dir, "out")
		_, err := runArgs(t, "-mode", "functional", opt, path)
		if err == nil || !strings.Contains(err.Error(), "-mode") {
			t.Errorf("%s with -mode functional: err = %v, want one naming -mode", opt, err)
		}
		if _, serr := os.Stat(path); serr == nil {
			t.Errorf("%s with -mode functional wrote %s", opt, path)
		}
	}
}

// TestTracedRunSkipsCache: a traced timing run writes the Chrome trace
// (with complete events) and its provenance sidecar, appends the latency
// report, and neither reads nor writes the result cache.
func TestTracedRunSkipsCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	if err := os.Mkdir(cache, 0o755); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "t.json")
	stdout, err := runArgs(t, "-mode", "timing", "-cache", cache, "-trace", out)
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chrome), `"ph":"X"`) {
		t.Errorf("%s holds no complete (\"ph\":\"X\") event", out)
	}
	if _, err := os.Stat(out + ".prov.json"); err != nil {
		t.Errorf("no provenance sidecar: %v", err)
	}
	for _, want := range []string{"cached=false", "traced requests:", "top 10 slowest requests:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	entries, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("traced run added %d entries to the result cache", len(entries))
	}
}

// TestOpenMetricsBothModes: -openmetrics writes a terminated exposition
// of the final snapshot for untraced functional and timing runs.
func TestOpenMetricsBothModes(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []string{"functional", "timing"} {
		path := filepath.Join(dir, mode+".prom")
		if _, err := runArgs(t, "-mode", mode, "-openmetrics", path); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if !strings.Contains(text, "_total ") || !strings.HasSuffix(text, "# EOF\n") {
			t.Errorf("%s: exposition has no counter or no # EOF terminator:\n%.300s", mode, text)
		}
	}
}

// body drops the # header lines of a text dump.
func body(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestRunUsesResultCache: a second run of the same flags with the same
// -cache reads the first one's outcome and prints the same statistics.
func TestRunUsesResultCache(t *testing.T) {
	args := []string{"-mode", "timing", "-cache", filepath.Join(t.TempDir(), "cache")}
	first, err := runArgs(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runArgs(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "cached=false") || !strings.Contains(second, "cached=true") {
		t.Errorf("second run did not come from the cache:\n%s\n%s", first, second)
	}
	if body(first) != body(second) {
		t.Error("cached body differs from the executed one")
	}
}

// TestBadBudgetsFail: a -refs budget that leaves some core no references
// (the default machine has 4 cores) and a negative -warmup are errors that
// name the field and exit 1, and the run prints nothing.
func TestBadBudgetsFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-refs", "-5"}, "Refs -5 leaves some of 4 cores no references"},
		{[]string{"-refs", "0"}, "Refs 0 leaves some of 4 cores no references"},
		{[]string{"-mode", "timing", "-refs", "3"}, "Refs 3 leaves some of 4 cores no references"},
		{[]string{"-warmup", "-100"}, "Warmup -100 is negative"},
	} {
		out, err := runArgs(t, tc.args...)
		if err == nil || errors.Is(err, errUsage) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want an exit-1 error containing %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v printed %q", tc.args, out)
		}
	}
}
