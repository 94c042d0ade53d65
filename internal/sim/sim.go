// Package sim provides the discrete-event simulation engine that drives
// every timing model in this repository.
//
// The engine keeps a monotonically increasing clock in integer picoseconds
// and a four-ary min-heap of pending events (queue.go). Components
// schedule closures with At/After, or — on hot paths — prebound callbacks
// with AtCall/AfterCall, which allocate nothing in steady state. Run
// drains the heap in timestamp order (FIFO among equal timestamps, which
// keeps simulations deterministic).
package sim

import (
	"repro/internal/inv"
)

// Time is a simulated timestamp or duration in picoseconds. Integer
// picoseconds keep all of Table I's latencies (down to 13.75 ns) exact and
// make every run bit-reproducible.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// NS converts a floating-point nanosecond quantity (how the paper states
// latencies, e.g. 13.75 ns) to Time, rounding to the nearest picosecond.
func NS(ns float64) Time {
	if ns >= 0 {
		return Time(ns*1000 + 0.5)
	}
	return -Time(-ns*1000 + 0.5)
}

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / 1000 }

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use.
type Engine struct {
	now   Time
	seq   uint64
	q     eventQueue
	steps uint64
	// ticks counts currently-scheduled Every events, so tickers judge
	// liveness against real work instead of each other (see Every).
	ticks int
	// rec is the run's invariant recorder. The engine is the entity that
	// owns a run, so it owns the recorder binding: components capture
	// Recorder() at construction and every violation of this run lands
	// here, isolated from concurrent runs in the same process.
	rec *inv.Recorder
}

// New returns a fresh engine with the clock at zero, bound to the default
// invariant recorder (SetRecorder rebinds for isolated runs).
func New() *Engine { return &Engine{rec: inv.Default()} }

// SetRecorder binds the run's invariant recorder. Call before constructing
// components: they capture the binding at build time. A nil r rebinds the
// process-wide default recorder.
func (e *Engine) SetRecorder(r *inv.Recorder) { e.rec = inv.Or(r) }

// Recorder reports the run's invariant recorder (never nil; a zero-value
// Engine reports the default recorder).
func (e *Engine) Recorder() *inv.Recorder { return inv.Or(e.rec) }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have executed; useful as a progress and
// runaway-simulation guard in tests.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending reports the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return e.q.len() }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently reorder causality, which is always a modelling bug.
//
// The closure form allocates (the closure itself); recurring events on hot
// paths should use AtCall/AfterCall with a prebound callback instead.
func (e *Engine) At(t Time, fn func()) { e.AtCall(t, callClosure, fn) }

// callClosure is the trampoline every At closure runs through: the
// closure rides in the arg word, so the queue holds one callback form.
func callClosure(fn any) { fn.(func())() }

// AtCall schedules fn(arg) to run at absolute time t. With fn a
// package-level function (or any func value that outlives the schedule)
// and arg a pointer, the call allocates nothing: the callback is written
// into a recycled slot of the queue's slab and the pointer rides in the
// interface word. This is the steady-state form for the simulators'
// recurring events (core issue ticks, cache wakeups, DRAM scheduling).
// Scheduling in the past panics, as with At.
func (e *Engine) AtCall(t Time, fn func(any), arg any) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	e.q.push(t, e.seq, 0, fn, arg)
}

// AtCallLate schedules fn(arg) in the late class at absolute time t: it
// runs after every ordinary event with the same timestamp, ordered among
// same-time late events by key (then schedule order). Component seams
// that must see a timestamp's complete state — the DRAM scheduler pass,
// DRAM completions, tsim's inter-entity messages — use this, so their
// position among same-time events depends only on (t, key), not on when
// they happened to be scheduled. Scheduling in the past panics, and so
// does a negative key: the queue packs the class and the key into one
// word that needs key >= 0.
func (e *Engine) AtCallLate(t Time, key int32, fn func(any), arg any) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if key < 0 {
		panic("sim: negative late-class key")
	}
	e.seq++
	e.q.push(t, e.seq, lateClass|uint32(key), fn, arg)
}

// After schedules fn to run d picoseconds from now. Negative delays panic.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AfterCall schedules fn(arg) to run d picoseconds from now; the
// allocation-free companion of After (see AtCall). Negative delays panic.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) { e.AtCall(e.now+d, fn, arg) }

// Every invokes fn(now) each period, starting one period from now, for as
// long as other work remains scheduled. Liveness is judged against
// non-ticker events only: the engine counts how many Every ticks are
// currently scheduled, and a tick re-arms only when something beyond the
// other tickers is still pending. That makes any number of coexisting
// periodic samplers (the obs time-series sampler, the flight recorder)
// terminate together once the simulation proper drains — with the old
// Pending() > 0 rule, two tickers would keep each other alive forever.
func (e *Engine) Every(period Time, fn func(now Time)) {
	if period <= 0 {
		panic("sim: Every needs a positive period")
	}
	var tick func()
	tick = func() {
		e.ticks--
		fn(e.now)
		if e.Pending() > e.ticks {
			e.ticks++
			e.After(period, tick)
		}
	}
	e.ticks++
	e.After(period, tick)
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.q.len() > 0 {
		e.step()
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for e.q.len() > 0 && e.peek().at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d picoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// peek is the single seam through which the run loops inspect the next
// event; the queue implementation can change behind it. Callers must
// check Pending() > 0 first.
func (e *Engine) peek() *entry { return e.q.peek() }

func (e *Engine) step() {
	ev, cb := e.q.pop()
	if rec := e.rec; rec != nil && rec.On() && ev.at < e.now {
		rec.Failf("sim", "clock moved backwards: event at %d ps popped at now=%d ps", ev.at, e.now)
	}
	e.now = ev.at
	e.steps++
	cb.fn(cb.arg)
}
