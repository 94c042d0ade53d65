package paper

import (
	"strings"
	"testing"
)

func TestExpectationsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Expectations() {
		if !strings.HasPrefix(e.Figure, "fig") {
			t.Errorf("bad figure id %q", e.Figure)
		}
		if e.Claim == "" || e.Metric == "" || e.Source == "" {
			t.Errorf("%s: claim/metric/source missing", e.Figure)
		}
		if e.Unit != "%" && e.Unit != "ns" {
			t.Errorf("%s: unknown unit %q", e.Figure, e.Unit)
		}
		if e.Tolerance < 0 {
			t.Errorf("%s: negative tolerance", e.Figure)
		}
		if e.Tolerance == 0 && e.Direction == "" {
			t.Errorf("%s (%s): neither tolerance nor direction — unverifiable", e.Figure, e.Metric)
		}
		for _, key := range []string{e.Figure + "/" + e.Metric, e.Figure + "/" + e.Claim} {
			if seen[key] {
				t.Errorf("duplicate expectation %s", key)
			}
			seen[key] = true
		}
	}
}

func TestHeadlineClaimsPresent(t *testing.T) {
	// The claims every reader of the paper remembers must be encoded.
	want := map[string]float64{
		"fig16": 7,    // +7% mean
		"fig11": 3.2,  // useless 3.2%
		"fig23": 1.7,  // invalidations 1.7%
		"fig19": 76.3, // decrypt-at-L2 76.3%
	}
	got := map[string]bool{}
	for _, e := range Expectations() {
		if v, ok := want[e.Figure]; ok && e.Value == v {
			got[e.Figure] = true
		}
	}
	for f := range want {
		if !got[f] {
			t.Errorf("headline claim for %s missing", f)
		}
	}
}
