package main

import (
	"bytes"
	"io"
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

// recordCanneal records the canneal stream the replay tests share (seed 3,
// 40 k references at the miniature scale) into dir and returns its path.
func recordCanneal(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "canneal.trc")
	if err := run([]string{"-record", path, "-small", "-bench", "canneal", "-seed", "3", "-refs", "40000"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	return path
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

// TestReplayMatchesDirectRun: replaying a recorded stream in either mode
// prints the statistics of the direct run that generated it, byte for
// byte, and the replay covers the file once when -refs is not given.
func TestReplayMatchesDirectRun(t *testing.T) {
	path := recordCanneal(t, t.TempDir())
	for _, mode := range []string{"functional", "timing"} {
		var direct, replay strings.Builder
		if err := run([]string{"-small", "-bench", "canneal", "-seed", "3", "-refs", "40000",
			"-mode", mode, "-system", "emcc", "-warmup", "0"}, &direct); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-replay", path, "-mode", mode, "-system", "emcc", "-warmup", "0"}, &replay); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(replay.String(), "# trace canneal: 4 cores") {
			t.Errorf("%s: replay lacks the trace header line:\n%.200s", mode, replay.String())
		}
		if !strings.Contains(replay.String(), "refs=40000 ") {
			t.Errorf("%s: replay did not cover the file's 40000 references once", mode)
		}
		if body(replay.String()) != body(direct.String()) {
			t.Errorf("%s: replay body differs from the direct run", mode)
		}
	}
}

// TestReplayRejectsDamagedTrace: a trace with one byte changed fails its
// checksum, and the replay prints nothing.
func TestReplayRejectsDamagedTrace(t *testing.T) {
	path := recordCanneal(t, t.TempDir())
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[bytes.Index(b, []byte("canneal"))] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = run([]string{"-replay", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("damaged trace: err = %v, want a checksum mismatch", err)
	}
	if out.Len() != 0 {
		t.Errorf("damaged trace printed %q", out.String())
	}
}

// TestReplayFlagConflicts: -record and -replay exclude each other, and the
// trace fixes the benchmark, seed and scale a replay runs.
func TestReplayFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-record", []string{"-record", "out.trc", "-replay", "in.trc"}},
		{"-bench", []string{"-replay", "in.trc", "-bench", "mcf"}},
		{"-seed", []string{"-replay", "in.trc", "-seed", "2"}},
		{"-small", []string{"-replay", "in.trc", "-small"}},
	} {
		err := run(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestReplayUsesResultCache: a replay is a scenario like any other, so a
// second replay of the same file reads the first one's cached outcome.
func TestReplayUsesResultCache(t *testing.T) {
	dir := t.TempDir()
	path := recordCanneal(t, dir)
	args := []string{"-replay", path, "-refs", "8000", "-cache", filepath.Join(dir, "cache")}
	var first, second strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "cached=false") || !strings.Contains(second.String(), "cached=true") {
		t.Errorf("second replay did not come from the cache:\n%s\n%s", first.String(), second.String())
	}
	if body(first.String()) != body(second.String()) {
		t.Error("cached replay body differs from the executed one")
	}
}
