package tsim

import (
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildRec constructs one simulation bound to its own invariant recorder;
// the caller decides on which goroutine Run executes.
func buildRec(t *testing.T, mutate func(*config.Config), rec *inv.Recorder) *Sim {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(&cfg, Options{
		Benchmark: "canneal", Seed: 3, Refs: 30_000, Warmup: 10_000,
		Scale: workload.TestScale(), Recorder: rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// brokenEMCC passes config.Validate but trips emcc.NewPolicy's gated
// check, guaranteeing at least one violation lands on the run's recorder.
func brokenEMCC(c *config.Config) {
	c.EMCC = true
	c.EMCCLookupDelay = -sim.NS(1)
}

// TestConcurrentRunsIsolateViolations runs two full tsim scenarios
// concurrently in one process with a recorder on each: a clean one
// and one with a deliberately broken EMCC policy. The broken run's
// violations must land only in its own recorder — the clean run's recorder
// stays empty — and the clean run's stats must be byte-identical to the
// same scenario run serially. Run under -race this also proves two engine
// instances share no mutable state.
func TestConcurrentRunsIsolateViolations(t *testing.T) {
	ref := buildRec(t, nil, nil)
	ref.Run()
	serial, err := ref.Stats().Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}

	cleanRec := inv.NewRecorder()
	brokenRec := inv.NewRecorder()

	cleanSim := buildRec(t, nil, cleanRec)
	brokenSim := buildRec(t, brokenEMCC, brokenRec)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cleanSim.Run()
	}()
	go func() {
		defer wg.Done()
		brokenSim.Run()
	}()
	wg.Wait()

	if n := brokenRec.Count(); n == 0 {
		t.Fatal("broken-EMCC run recorded no violations")
	}
	vs := brokenRec.Violations()
	if len(vs) == 0 || vs[0].Component != "emcc" {
		t.Fatalf("broken run's first violation = %v, want component emcc", vs)
	}
	if n := cleanRec.Count(); n != 0 {
		t.Fatalf("clean run's recorder absorbed %d violations from the broken run; first: %v",
			n, cleanRec.Violations()[0])
	}
	got, err := cleanSim.Stats().Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(serial) {
		t.Fatal("clean run's stats diverged from the serial reference under concurrency")
	}
}
