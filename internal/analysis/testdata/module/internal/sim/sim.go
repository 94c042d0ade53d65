// Package sim is the fixture's stand-in for the real event engine: the
// scheduling surface the interprocedural passes key on (receiver names
// and method names), with just enough body for the compiler's escape
// analysis to treat registered callbacks like the real engine does
// (retained, therefore escaping).
package sim

// Time mirrors the real engine's clock type.
type Time int64

type scheduled struct {
	t   Time
	fn  func(any)
	arg any
}

// Engine is the event scheduler.
type Engine struct {
	now Time
	q   []scheduled
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules a closure-form event (setup-time convenience).
func (e *Engine) At(t Time, fn func()) { e.q = append(e.q, scheduled{t: t}) }

// AtCall schedules a prebound callback.
func (e *Engine) AtCall(t Time, fn func(any), arg any) {
	e.q = append(e.q, scheduled{t, fn, arg})
}

// AtCallLate schedules a prebound callback in the late class.
func (e *Engine) AtCallLate(t Time, key int32, fn func(any), arg any) {
	e.q = append(e.q, scheduled{t, fn, arg})
}

// After schedules a closure-form event relative to now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AfterCall schedules a prebound callback relative to now.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) { e.AtCall(e.now+d, fn, arg) }

// Every schedules a periodic closure.
func (e *Engine) Every(period Time, fn func(now Time)) {}
