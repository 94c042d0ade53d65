// Package inv is the fixture's stand-in for the real internal/inv: a
// per-run recorder, where a nil recorder means checking is off.
package inv

// Recorder is the fixture's stand-in for the real per-run recorder.
type Recorder struct{ enabled bool }

// On reports whether this recorder records violations.
func (r *Recorder) On() bool { return r != nil && r.enabled }

// Failf reports an invariant violation on this recorder.
func (r *Recorder) Failf(component, format string, args ...any) {}

// Fail reports a fixed-message violation on this recorder.
func (r *Recorder) Fail(component, message string) {}
