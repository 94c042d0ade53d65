// Package invflow pins the invgate cases a caller's guard does not
// change: a bare Failf in a helper whose only caller guards (finding —
// the guard must dominate the site itself), and value uses of the fail
// functions (findings — no call site is left to guard).
package invflow

import "fixture/internal/inv"

// checkDeep keeps its Failf bare: its only caller crosses inv.On(), but
// that guard does not dominate the site, so the site is a finding.
func checkDeep(n int) {
	if n < 0 {
		inv.Failf("invflow", "negative %d", n)
	}
}

// Audit is the only entry into checkDeep, and it guards.
func Audit(n int) {
	if inv.On() {
		checkDeep(n)
	}
}

// Handler takes inv.Failf as a function value: always a finding — once
// the value escapes, no guard discipline can hold.
var Handler = inv.Failf

// Dispatch binds inv.Fail to a local and calls it: the binding is the
// finding (the call through the variable is invisible to a call-site
// analysis).
func Dispatch() {
	f := inv.Fail
	f("invflow", "via value")
}
