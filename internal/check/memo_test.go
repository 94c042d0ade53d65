package check

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
)

// TestRunMatchesStandalonePillars pins the memo's contract from outside:
// Run, which shares one memo across all three pillars, must report exactly
// what the pillars report when each runs on its own with a memo of its
// own — at any parallelism.
func TestRunMatchesStandalonePillars(t *testing.T) {
	opt := Options{Refs: 4_000}
	var want []Result
	want = append(want, Differential(opt)...)
	want = append(want, Metamorphic(opt)...)
	want = append(want, Invariants(opt)...)
	for _, parallel := range []int{1, 4} {
		opt.Parallel = parallel
		got := Run(opt)
		if render(got) != render(want) {
			t.Errorf("Parallel=%d: Run diverged from the standalone pillars:\nRun:\n%s\nstandalone:\n%s",
				parallel, render(got), render(want))
		}
	}
}

// TestSimMemoConcurrent has many goroutines request the same few configs
// at once: each config must be simulated exactly once, and every caller
// must get that one run. CI repeats it under the race detector.
func TestSimMemoConcurrent(t *testing.T) {
	m := recordMemo(Options{Refs: 1_000}.withDefaults())
	var cfgs []config.Config
	for _, system := range []string{"non-secure", "emcc", "bipbip"} {
		cfg := config.Default()
		if err := config.ApplySystem(&cfg, system); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	const callers = 8
	got := make([][]*memoRun, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cfgs {
				// Stagger the order so callers race on different keys.
				r, err := m.replay(cfgs[(i+g)%len(cfgs)])
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], r)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := m.sims.Load(); n != int64(len(cfgs)) {
		t.Fatalf("%d simulations for %d distinct configs", n, len(cfgs))
	}
	for i, cfg := range cfgs {
		r := m.runs[cfg]
		if r.requests != callers {
			t.Errorf("config %d: %d requests, want %d", i, r.requests, callers)
		}
		if len(r.snap) == 0 || r.st == nil || r.res.SimulatedTime == 0 {
			t.Errorf("config %d: empty result", i)
		}
	}
	for g := range got {
		for i, r := range got[g] {
			want := m.runs[cfgs[(i+g)%len(cfgs)]]
			if r != want || !bytes.Equal(r.snap, want.snap) {
				t.Errorf("caller %d request %d got a different run", g, i)
			}
		}
	}
}

// TestRunSimulatesEachConfigOnce counts the simulations one default Run
// makes. The replays the checks request overlap — the default morphable
// config alone is requested by the differential replay, AES monotonicity
// (14 ns is the default) and qdelay dominance — and each must run once.
func TestRunSimulatesEachConfigOnce(t *testing.T) {
	rs, m := run(Options{Refs: 2_000, Parallel: 2})
	if n := Failed(rs); n != 0 {
		t.Fatalf("%d checks failed:\n%s", n, render(rs))
	}
	requests := 0
	for _, r := range m.runs {
		requests += r.requests
	}
	if n := m.sims.Load(); n != int64(len(m.runs)) {
		t.Fatalf("%d simulations for %d distinct configs", n, len(m.runs))
	}
	// 5 differential replays, 3 AES, 3 in-SRAM, 4 bipbip and 2 dominance
	// runs, over 13 distinct configs.
	if requests != 17 || len(m.runs) != 13 {
		t.Errorf("%d replay requests over %d configs, want 17 over 13", requests, len(m.runs))
	}
	if r := m.runs[config.Default()]; r == nil || r.requests != 3 {
		t.Errorf("default config not requested 3 times: %+v", r)
	}
}

// TestRunReplaysChannelTraceOnce pins channelQueueing's share of a Run:
// its 1- and 4-channel replays are simulated once each — the workers fill
// them first and the tsim-channel-qdelay unit reads them — the trace is
// released once both have run, and the report is byte-identical at any
// number of workers.
func TestRunReplaysChannelTraceOnce(t *testing.T) {
	var want string
	for _, parallel := range []int{1, 2, 4} {
		rs, m := run(Options{Refs: 2_000, Parallel: parallel})
		c := m.channels
		if n := c.sims.Load(); n != 2 || len(c.runs) != 2 {
			t.Errorf("Parallel=%d: %d channel replays simulated over %d configs, want 2 over 2", parallel, n, len(c.runs))
		}
		if c.tr != nil {
			t.Errorf("Parallel=%d: the channel trace outlived its two replays", parallel)
		}
		for cfg, r := range c.runs {
			// One request from the worker that fills it, one from the unit.
			if r.requests != 2 {
				t.Errorf("Parallel=%d: %d-channel replay requested %d times, want 2", parallel, cfg.Channels, r.requests)
			}
		}
		if _, err := c.replay(channelConfig(2)); err == nil {
			t.Errorf("Parallel=%d: a replay requested after the trace's release reported no error", parallel)
		}
		got := render(rs)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("Parallel=%d report differs from Parallel=1:\n%s\nwant:\n%s", parallel, got, want)
		}
	}
	if !strings.Contains(want, "tsim-channel-qdelay ") {
		t.Errorf("report has no tsim-channel-qdelay line:\n%s", want)
	}
}
