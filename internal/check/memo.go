package check

import (
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tsim"
)

// simMemo is one Run's shared input — the recorded trace and the options
// its checks are handed — plus a memo that runs each distinct tsim replay
// of that trace once. The differential replay, the AES and in-SRAM
// monotonicity runs, bipbip knob invariance and channel-qdelay dominance
// all ask it for their runs by config, so a config several of them need
// is simulated once and read by all of them.
//
// Only plain replays are shared: runs with a recorder, tracer or flight
// recorder attached, runs with a warm-up or a synthetic workload, and
// ChannelQueueing's own trace build their simulators outright. A memo
// lives for one Run or one standalone pillar call.
type simMemo struct {
	tr *trace.Trace
	// err is the error recording tr failed with; every replay reports it.
	err error
	// opt are the options the memo's checks are handed.
	opt Options
	// refs is the budget of every replay: opt.withDefaults().Refs, the
	// whole recorded trace (withDefaults is idempotent, so Quick halves
	// the budget once, before the trace is recorded).
	refs int64

	mu   sync.Mutex
	runs map[config.Config]*memoRun

	// sims counts replays actually simulated; tests read it after the
	// checks finish.
	sims atomic.Int64
}

// memoRun is one memoized replay. It is written once, under its
// sync.Once, and only read afterwards, so any number of checks may read
// it concurrently.
type memoRun struct {
	once     sync.Once
	requests int // guarded by simMemo.mu
	res      tsim.Result
	st       *stats.Set
	snap     []byte // st's StableJSON snapshot
	err      error
}

// newSimMemo wraps tr, recorded for the checks handed opt.
func newSimMemo(tr *trace.Trace, opt Options) *simMemo {
	return &simMemo{tr: tr, opt: opt, refs: opt.withDefaults().Refs, runs: make(map[config.Config]*memoRun)}
}

// recordMemo records opt's trace and wraps it in a fresh memo. A recording
// error is kept and reported by every replay.
func recordMemo(opt Options) *simMemo {
	tr, err := recordTrace(opt)
	m := newSimMemo(tr, opt)
	m.err = err
	return m
}

// replay returns the replay of the trace under cfg. The first
// request simulates it; every later one, concurrent or not, waits for that
// run and shares its result.
func (m *simMemo) replay(cfg config.Config) (*memoRun, error) {
	if m.err != nil {
		return nil, m.err
	}
	m.mu.Lock()
	r := m.runs[cfg]
	if r == nil {
		r = new(memoRun)
		m.runs[cfg] = r
	}
	r.requests++
	m.mu.Unlock()
	r.once.Do(func() {
		m.sims.Add(1)
		s, err := newReplaySim(&cfg, m.tr, m.refs, nil)
		if err != nil {
			r.err = err
			return
		}
		r.res = s.Run()
		r.st = s.Stats()
		r.snap, r.err = r.st.Snapshot().StableJSON()
	})
	return r, r.err
}

// newReplaySim builds a tsim instance that replays refs references of tr
// under cfg, with rec (which may be nil) as its invariant recorder.
func newReplaySim(cfg *config.Config, tr *trace.Trace, refs int64, rec *inv.Recorder) (*tsim.Sim, error) {
	gens, err := tr.Generators()
	if err != nil {
		return nil, err
	}
	return tsim.New(cfg, tsim.Options{
		Cores: tr.Cores, Refs: refs, Generators: gens, DataBytes: tr.Footprint,
		Recorder: rec,
	})
}
