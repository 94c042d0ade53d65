// Package inv is the runtime invariant-checking facility shared by the
// simulator components (sim, dram, cache, mc, itree, emcc). Checks are
// gated on a nil test: a run without a recorder pays one predictable
// branch per check site and zero allocation; verification runs
// (cmd/check, go test ./internal/check) bind a recorder and collect
// violations instead of crashing mid-simulation, so one broken invariant
// cannot mask the rest.
//
// State lives in a Recorder, owned by whatever owns a run: the engine-scoped
// binding (sim.Engine carries one, components capture it at construction)
// keeps concurrent in-process runs fully isolated — each run's violations
// land only in its own Recorder. There is no process-wide recorder: a nil
// *Recorder means checking is off, so a run that binds none checks
// nothing.
//
// Usage at a check site (r is the run's recorder, captured from the engine
// at construction):
//
//	if r.On() && start < enqueued {
//		r.Failf("dram", "request issued %d ps before enqueue", enqueued-start)
//	}
//
// The condition and the Failf arguments are only evaluated when the run has
// a recorder, keeping the unchecked path free of fmt traffic. The invgate lint
// pass (internal/analysis) enforces the discipline.
package inv

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Violation is one recorded invariant failure.
type Violation struct {
	// Component labels the subsystem that detected the failure
	// ("sim", "dram", "cache", "mc", "itree", "emcc", ...).
	Component string
	// Message describes the violated invariant.
	Message string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Component + ": " + v.Message }

// maxRecorded caps stored violations; beyond it only the total count grows
// (a systematically broken invariant would otherwise flood memory).
const maxRecorded = 256

// Recorder holds the invariant-checking state for one run: a non-nil
// Recorder checks, a nil one does not. The zero value is ready to use
// (nothing recorded). A Recorder is safe for concurrent use.
type Recorder struct {
	total atomic.Int64

	mu   sync.Mutex
	vios []Violation
}

// NewRecorder returns a fresh recorder, nothing recorded.
func NewRecorder() *Recorder { return &Recorder{} }

// On reports whether invariant checking is active: whether r is non-nil.
// Check sites call this first so an unchecked run costs one nil test.
func (r *Recorder) On() bool { return r != nil }

// Failf records an invariant violation. It never panics: simulation
// continues so a single failure cannot hide later, independent ones.
func (r *Recorder) Failf(component, format string, args ...interface{}) {
	r.total.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.vios) < maxRecorded {
		r.vios = append(r.vios, Violation{Component: component, Message: fmt.Sprintf(format, args...)})
	}
}

// Violations returns a copy of the recorded violations (at most the first
// maxRecorded; Count reports the true total).
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.vios...)
}

// Count reports the total number of violations, including any dropped
// beyond the recording cap.
func (r *Recorder) Count() int64 { return r.total.Load() }
