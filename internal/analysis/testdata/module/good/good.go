// Package good pins the negative cases: nothing in this file may ever
// produce a finding. Each function mirrors one accepted form.
package good

import (
	"fixture/internal/inv"
	"fixture/internal/obs"
	"fixture/internal/stats"
)

// keyTable shows the registry-constant-table idiom the real module uses
// in internal/dram and internal/obs.
var keyTable = [...]string{stats.KeyTable, stats.KeyGood}

// Registered uses a registry constant directly.
func Registered(s *stats.Set) {
	s.Inc(stats.KeyGood)
}

// AnnotatedDynamic selects from a table of registry constants and says
// so.
func AnnotatedDynamic(s *stats.Set, i int) {
	//lint:dynamic-key selected from the registered keyTable
	s.Add(keyTable[i], 1)
}

// Suppressed documents why an off-registry literal is acceptable here.
func Suppressed(s *stats.Set) {
	//lint:ignore statskey fixture pin for the suppression path
	s.Inc("fixture/not-in-registry")
}

// Component holds its invariant recorder in a field, as the simulators'
// components do.
type Component struct{ rec *inv.Recorder }

// BlockGuard wraps the failure in an On() block on the field.
func (c *Component) BlockGuard(n int) {
	if c.rec.On() {
		if n < 0 {
			c.rec.Failf("good", "negative %d", n)
		}
	}
}

// CondGuard binds the recorder in the if statement and folds the gate
// into an && chain — the form the real hot paths use.
func (c *Component) CondGuard(n int) {
	if rec := c.rec; rec.On() && n < 0 {
		rec.Failf("good", "negative %d", n)
	}
}

// HoistedGuard binds the field's On() result to a local first.
func (c *Component) HoistedGuard(n int) {
	check := c.rec.On()
	if check && n < 0 {
		c.rec.Fail("good", "negative")
	}
}

// EarlyReturn bails out of checking up front.
func (c *Component) EarlyReturn(n int) {
	if !c.rec.On() {
		return
	}
	if n < 0 {
		c.rec.Failf("good", "negative %d", n)
	}
}

// NilSafe calls only documented nil-safe tracer methods.
func NilSafe(t *obs.Tracer) bool {
	return t.Enabled()
}

// GuardedTracer may call anything once non-nil is established — via the
// obsnil suppression, since flow analysis is out of scope for the pass.
func GuardedTracer(t *obs.Tracer) {
	if t != nil {
		//lint:ignore obsnil receiver proven non-nil by the guard above
		t.Record()
	}
}

// RegisteredRefs binds cached cells through the ref accessors with
// registry constants — the hot-path idiom the real tsim/dram use.
func RegisteredRefs(s *stats.Set) (*int64, *stats.Accum) {
	return s.CounterRef(stats.KeyGood), s.AccumRef(stats.KeyTable)
}

// histTable mirrors the per-segment histogram-key table idiom the real
// internal/obs and internal/dram use for their dynamic families.
var histTable = [...]string{stats.KeyTable, stats.KeyGood}

// RegisteredHist binds and reads histogram cells with registry
// constants, plus the annotated table selection.
func RegisteredHist(s *stats.Set, i int) *stats.Hist {
	_ = s.Hist(stats.KeyGood)
	//lint:dynamic-key selected from the registered histTable
	return s.HistRef(histTable[i])
}

// MethodBlockGuard gates Failf on a recorder it is handed on that
// recorder's own On.
func MethodBlockGuard(r *inv.Recorder, n int) {
	if r.On() {
		if n < 0 {
			r.Failf("good", "negative %d", n)
		}
	}
}

// MethodCondGuard folds the recorder gate into an && chain.
func MethodCondGuard(r *inv.Recorder, n int) {
	if r.On() && n < 0 {
		r.Fail("good", "negative")
	}
}

// MethodHoistedGuard binds the handed recorder's On() result to a
// local first.
func MethodHoistedGuard(r *inv.Recorder, n int) {
	check := r.On()
	if check && n < 0 {
		r.Failf("good", "negative %d", n)
	}
}

// MethodEarlyReturn bails out of checking up front on the recorder.
func MethodEarlyReturn(r *inv.Recorder, n int) {
	if !r.On() {
		return
	}
	if n < 0 {
		r.Failf("good", "negative %d", n)
	}
}
