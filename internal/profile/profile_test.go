package profile

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// start registers the flags on a fresh set, points all three at files in
// dir and starts them.
func start(t *testing.T, dir string) (*Profiler, []string) {
	t.Helper()
	files := []string{filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")}
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := Register(fs, "tool")
	if err := fs.Parse([]string{"-cpuprofile", files[0], "-memprofile", files[1], "-exectrace", files[2]}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	return p, files
}

// work gives every profile something to record.
func work() int {
	var keep [][]byte
	n := 0
	for i := 0; i < 2000; i++ {
		keep = append(keep, make([]byte, 512))
		n += len(keep[i])
	}
	return n
}

func requireWritten(t *testing.T, files []string) {
	t.Helper()
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// TestStopWritesEveryProfile: after Stop, the CPU profile, the heap profile
// and the execution trace are each written and non-empty, and a second
// Stop does nothing.
func TestStopWritesEveryProfile(t *testing.T) {
	p, files := start(t, t.TempDir())
	work()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	requireWritten(t, files)
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
}

// TestExitWritesEveryProfile: an error exit through Exit flushes all three
// profiles and keeps its exit code. The exit runs in a child process.
func TestExitWritesEveryProfile(t *testing.T) {
	if dir := os.Getenv("PROFILE_TEST_EXIT_DIR"); dir != "" {
		p, _ := start(t, dir)
		work()
		p.Exit(3)
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestExitWritesEveryProfile$")
	cmd.Env = append(os.Environ(), "PROFILE_TEST_EXIT_DIR="+dir)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("child exit = %v, want status 3; output:\n%s", err, out)
	}
	requireWritten(t, []string{filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")})
}

// TestNoFlagsNoFiles: without the flags, Start and Stop do nothing.
func TestNoFlagsNoFiles(t *testing.T) {
	p := Register(flag.NewFlagSet("tool", flag.ContinueOnError), "tool")
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartFailureLeavesNothingRunning: an unwritable trace path fails
// Start and stops the CPU profile it had begun, so a later Start works.
func TestStartFailureLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	p := Register(fs, "tool")
	bad := filepath.Join(dir, "missing", "exec.trace")
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(dir, "cpu.pprof"), "-exectrace", bad}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err == nil {
		t.Fatal("Start with an unwritable trace path succeeded")
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	q, files := start(t, dir)
	if err := q.Stop(); err != nil {
		t.Fatal(err)
	}
	requireWritten(t, files)
}
