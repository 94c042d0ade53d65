// Package suppress pins the suppression audit: a marker that suppresses
// a real finding is silent, a stale marker is itself a finding.
package suppress

import "fixture/internal/inv"

// Used documents a deliberate ungated failure: the marker suppresses the
// invgate finding and therefore passes the audit.
func Used(r *inv.Recorder) {
	//lint:ignore invgate fixture: deliberate ungated failure path
	r.Failf("suppress", "deliberate")
}

// Stale carries a suppression with nothing left to suppress: the audit
// turns the marker itself into a finding.
func Stale() int {
	//lint:ignore invgate fixture: the violation this documented is gone
	return 1
}
