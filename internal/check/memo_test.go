package check

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/inv"
)

// TestMemoMatchesFreshRuns pins the memo's contract from outside: every
// run a Run's units shared — the channel runs included — must equal, byte
// for byte, a fresh simulation of its config with no recorder attached.
// The memo's runs each carry an enabled inv.Recorder, so a recorder check
// that touched simulator state would show here.
func TestMemoMatchesFreshRuns(t *testing.T) {
	rs, m := run(Options{Refs: 4_000, Parallel: 2})
	if n := Failed(rs); n != 0 {
		t.Fatalf("%d checks failed:\n%s", n, render(rs))
	}
	for _, memo := range []*simMemo{m, m.channels} {
		for k, r := range memo.runs {
			res, st, err := simulate(k.functional, &k.cfg, memo.opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, r.res) || !bytes.Equal(stableJSON(t, st), r.snap) {
				t.Errorf("fsim=%v %d channels, %d cores: the memo's run differs from a fresh recorder-free one",
					k.functional, k.cfg.Channels, memo.opt.Cores)
			}
		}
	}
}

// TestSimMemoConcurrent has many goroutines request the same few configs
// from both simulators at once: each (simulator, config) pair must be
// simulated exactly once, under a recorder of its own, and every caller
// must get that one run. CI repeats it under the race detector.
func TestSimMemoConcurrent(t *testing.T) {
	m := newSimMemo(Options{Refs: 1_000}.withDefaults())
	var keys []memoKey
	for _, system := range []string{"non-secure", "emcc", "bipbip"} {
		cfg := config.Default()
		if err := config.ApplySystem(&cfg, system); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, memoKey{functional: true, cfg: cfg}, memoKey{cfg: cfg})
	}
	const callers = 8
	got := make([][]*memoRun, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				// Stagger the order so callers race on different keys.
				k := keys[(i+g)%len(keys)]
				get := m.tsim
				if k.functional {
					get = m.fsim
				}
				r, err := get(k.cfg)
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
	if n := m.sims.Load(); n != int64(len(keys)) || len(m.runs) != len(keys) {
		t.Fatalf("%d simulations, %d entries for %d distinct (simulator, config) pairs", n, len(m.runs), len(keys))
	}
	recs := make(map[*inv.Recorder]bool)
	for i, k := range keys {
		r := m.runs[k]
		if r.requests != callers {
			t.Errorf("key %d: %d requests, want %d", i, r.requests, callers)
		}
		// A tsim run has a runtime; an fsim run has none.
		if len(r.snap) == 0 || r.st == nil || (r.res.SimulatedTime == 0) != k.functional {
			t.Errorf("key %d: empty result", i)
		}
		if !r.rec.On() || r.rec.Count() != 0 || recs[r.rec] {
			t.Errorf("key %d: recorder on=%v with %d violations, shared=%v; want its own, on, with none",
				i, r.rec.On(), r.rec.Count(), recs[r.rec])
		}
		recs[r.rec] = true
	}
	for g := range got {
		for i, r := range got[g] {
			if want := m.runs[keys[(i+g)%len(keys)]]; r != want {
				t.Errorf("caller %d request %d got a different run", g, i)
			}
		}
	}
}

// TestRunSimulatesEachConfigOnce counts the simulations one default Run
// makes. The runs the checks request overlap — a system's differential
// and invariant units read the same two, and the default morphable tsim
// config alone is requested by the differential and invariant units, AES
// monotonicity (14 ns is the default) and qdelay dominance — and each must
// run once.
func TestRunSimulatesEachConfigOnce(t *testing.T) {
	rs, m := run(Options{Refs: 2_000, Parallel: 2})
	if n := Failed(rs); n != 0 {
		t.Fatalf("%d checks failed:\n%s", n, render(rs))
	}
	var requests, configs [2]int // indexed by functional
	for k, r := range m.runs {
		i := 0
		if k.functional {
			i = 1
		}
		requests[i] += r.requests
		configs[i]++
	}
	if n := m.sims.Load(); n != int64(len(m.runs)) {
		t.Fatalf("%d simulations for %d distinct runs", n, len(m.runs))
	}
	// tsim: 5 differential, 5 invariant, 3 AES, 3 in-SRAM, 4 bipbip and 2
	// dominance requests over 13 configs. fsim: 5 differential, 2
	// counter-free acceptance and 5 invariant requests over 5 configs.
	if requests[0] != 22 || configs[0] != 13 {
		t.Errorf("%d tsim requests over %d configs, want 22 over 13", requests[0], configs[0])
	}
	if requests[1] != 12 || configs[1] != 5 {
		t.Errorf("%d fsim requests over %d configs, want 12 over 5", requests[1], configs[1])
	}
	if r := m.runs[memoKey{cfg: config.Default()}]; r == nil || r.requests != 4 {
		t.Errorf("default tsim config not requested 4 times: %+v", r)
	}
}

// TestRunReplaysChannelTraceOnce pins channelQueueing's share of a Run:
// its 1- and 4-channel runs are simulated once each — the workers fill
// them first and the tsim-channel-qdelay unit reads them — and the report
// is byte-identical at any number of workers.
func TestRunReplaysChannelTraceOnce(t *testing.T) {
	var want string
	for _, parallel := range []int{1, 2, 4} {
		rs, m := run(Options{Refs: 2_000, Parallel: parallel})
		c := m.channels
		if n := c.sims.Load(); n != 2 || len(c.runs) != 2 {
			t.Errorf("Parallel=%d: %d channel runs simulated over %d configs, want 2 over 2", parallel, n, len(c.runs))
		}
		for k, r := range c.runs {
			// One request from the worker that fills it, one from the unit.
			if r.requests != 2 {
				t.Errorf("Parallel=%d: %d-channel run requested %d times, want 2", parallel, k.cfg.Channels, r.requests)
			}
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
