package check

import (
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/inv"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// simMemo is one Run's shared input — the options its checks are handed —
// plus a memo that simulates each distinct (simulator, config) pair of
// that input once. A system's differential unit and its invariant unit
// read the same fsim and tsim runs, and the AES and in-SRAM monotonicity
// runs, bipbip knob invariance and qdelay dominance ask it for tsim runs
// by config, so a run several checks need is simulated once and read by
// all of them. channelQueueing's heavier load has a memo of its own,
// channels, which Run fills first.
//
// Every entry runs under its own enabled inv.Recorder, which the
// invariant units read; a recorder only observes, so the entry's
// statistics equal a recorder-free run's. Traced runs and runs with a
// warm-up build their simulators outright. A memo lives for one Run.
type simMemo struct {
	// opt are the defaulted options the memo's checks are handed; every
	// entry simulates opt.Refs references of opt's synthetic workload.
	opt Options

	mu   sync.Mutex
	runs map[memoKey]*memoRun

	// sims counts runs actually simulated; tests read it after the
	// checks finish.
	sims atomic.Int64

	// channels is the memo of channelQueueing's load (channelOptions).
	// Run sets it; memos that serve no metamorphic units leave it nil.
	channels *simMemo
}

// memoKey names one memoized run: the simulator and its config.
type memoKey struct {
	functional bool // fsim; false is tsim
	cfg        config.Config
}

// memoRun is one memoized simulation. It is written once, under its
// sync.Once, and only read afterwards, so any number of checks may read
// it concurrently.
type memoRun struct {
	once     sync.Once
	requests int           // guarded by simMemo.mu
	rec      *inv.Recorder // the run's own, enabled recorder
	res      tsim.Result   // zero for fsim runs
	st       *stats.Set
	snap     []byte // st's StableJSON snapshot
	err      error
}

// newSimMemo serves the checks handed opt, which must be defaulted.
func newSimMemo(opt Options) *simMemo {
	return &simMemo{opt: opt, runs: make(map[memoKey]*memoRun)}
}

// tsim returns the timing run under cfg.
func (m *simMemo) tsim(cfg config.Config) (*memoRun, error) {
	return m.get(memoKey{cfg: cfg})
}

// fsim returns the functional run under cfg.
func (m *simMemo) fsim(cfg config.Config) (*memoRun, error) {
	return m.get(memoKey{functional: true, cfg: cfg})
}

// get returns k's run. The first request simulates it; every later one,
// concurrent or not, waits for that run and shares its result. The run
// and its recorder are returned with any error, so a caller can still
// report what the recorder saw before the simulator failed.
func (m *simMemo) get(k memoKey) (*memoRun, error) {
	m.mu.Lock()
	r := m.runs[k]
	if r == nil {
		r = new(memoRun)
		m.runs[k] = r
	}
	r.requests++
	m.mu.Unlock()
	r.once.Do(func() {
		m.sims.Add(1)
		r.rec = inv.NewRecorder()
		r.rec.Enable(true)
		r.res, r.st, r.err = simulate(k.functional, &k.cfg, m.opt, r.rec)
		if r.err == nil {
			r.snap, r.err = r.st.Snapshot().StableJSON()
		}
	})
	return r, r.err
}

// simulate runs opt.Refs references of opt's synthetic workload, at the
// test scale and without warm-up, through fsim (functional) or tsim under
// cfg, with rec (which may be nil) as the invariant recorder. An fsim run
// returns a zero tsim.Result.
func simulate(functional bool, cfg *config.Config, opt Options, rec *inv.Recorder) (tsim.Result, *stats.Set, error) {
	if functional {
		s, err := fsim.New(cfg, fsim.Options{
			Benchmark: opt.Benchmark, Cores: opt.Cores, Seed: opt.Seed,
			Refs: opt.Refs, Scale: workload.TestScale(), Recorder: rec,
		})
		if err != nil {
			return tsim.Result{}, nil, err
		}
		s.Run()
		return tsim.Result{}, s.Stats(), nil
	}
	s, err := tsim.New(cfg, tsim.Options{
		Benchmark: opt.Benchmark, Cores: opt.Cores, Seed: opt.Seed,
		Refs: opt.Refs, Scale: workload.TestScale(), Recorder: rec,
	})
	if err != nil {
		return tsim.Result{}, nil, err
	}
	return s.Run(), s.Stats(), nil
}
