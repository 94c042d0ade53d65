// Package bad pins the positive cases: each exported function below
// yields exactly one diagnostic from the pass named in its comment
// (Malformed yields two — see there).
package bad

import (
	"fixture/internal/inv"
	"fixture/internal/obs"
	"fixture/internal/stats"
)

// Unregistered passes a constant key missing from the registry: one
// statskey finding.
func Unregistered(s *stats.Set) {
	s.Inc("fixture/unregistered")
}

// Dynamic passes a runtime-assembled key with no annotation: one
// statskey finding.
func Dynamic(s *stats.Set, name string) {
	s.Add("fixture/"+name, 1)
}

// Unguarded calls Failf on its recorder with no On() dominator: one
// invgate finding.
func (c *Component) Unguarded(n int) {
	c.rec.Failf("bad", "unguarded %d", n)
}

// UnguardedFail covers the non-formatting form: one invgate finding.
func (c *Component) UnguardedFail() {
	c.rec.Fail("bad", "unguarded")
}

// NotNilSafe calls a method outside the documented nil-safe set: one
// obsnil finding.
func NotNilSafe(t *obs.Tracer) {
	t.Record()
}

// Malformed carries a suppression with no reason: the marker itself is
// a "lint" finding, and because it suppresses nothing the statskey
// finding below survives too.
func Malformed(s *stats.Set) {
	//lint:ignore statskey
	s.Inc("fixture/also-unregistered")
}

// UnregisteredRef binds a cached cell under a key missing from the
// registry: one statskey finding.
func UnregisteredRef(s *stats.Set) *int64 {
	return s.CounterRef("fixture/unregistered-ref")
}

// UnregisteredHistRef binds a histogram cell under a key missing from
// the registry: one statskey finding.
func UnregisteredHistRef(s *stats.Set) *stats.Hist {
	return s.HistRef("fixture/unregistered-hist")
}

// UnguardedMethod calls Failf on a recorder it is handed, with no On()
// dominator: one invgate finding.
func UnguardedMethod(r *inv.Recorder, n int) {
	r.Failf("bad", "unguarded method %d", n)
}

// UnguardedMethodFail covers the handed recorder's non-formatting form:
// one invgate finding.
func UnguardedMethodFail(r *inv.Recorder) {
	r.Fail("bad", "unguarded method")
}

// Component holds its invariant recorder in a field, as the simulators'
// components do.
type Component struct{ rec *inv.Recorder }
