package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRun lints the pinned fixture module once per test binary.
func fixtureRun(t *testing.T, patterns ...string) *Result {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(root, patterns...)
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	return res
}

// TestFixtureFindings pins the exact diagnostic set of the fixture
// module: every positive case yields its one finding, and nothing in
// good/, the stub packages, or the blessed figures patterns leaks one.
func TestFixtureFindings(t *testing.T) {
	const invgateSuffix = " is not dominated by an On() check (wrap the site in `if rec.On()` so disabled runs pay one branch)"
	want := []string{
		`bad/bad.go:15: [statskey] unregistered stats key "fixture/unregistered" (declare it in internal/stats/keys.go)`,
		`bad/bad.go:21: [statskey] stats key passed to Add does not resolve to a compile-time constant (register it in internal/stats/keys.go, or annotate the site //lint:dynamic-key if the family is dynamic by design)`,
		"bad/bad.go:27: [invgate] (*inv.Recorder).Failf" + invgateSuffix,
		"bad/bad.go:32: [invgate] (*inv.Recorder).Fail" + invgateSuffix,
		`bad/bad.go:38: [obsnil] (*obs.Tracer).Record is outside the documented nil-safe set; a disabled (nil) tracer would panic here (guard the receiver or extend tracerNilSafe in internal/obs)`,
		`bad/bad.go:45: [lint] malformed suppression: want //lint:ignore <pass> <reason>`,
		`bad/bad.go:46: [statskey] unregistered stats key "fixture/also-unregistered" (declare it in internal/stats/keys.go)`,
		`bad/bad.go:52: [statskey] unregistered stats key "fixture/unregistered-ref" (declare it in internal/stats/keys.go)`,
		`bad/bad.go:58: [statskey] unregistered stats key "fixture/unregistered-hist" (declare it in internal/stats/keys.go)`,
		"bad/bad.go:64: [invgate] (*inv.Recorder).Failf" + invgateSuffix,
		"bad/bad.go:70: [invgate] (*inv.Recorder).Fail" + invgateSuffix,
		`internal/figures/figures.go:14: [detlint] time.Now in a deterministic-output package (golden/compared output must not depend on wall time)`,
		`internal/figures/figures.go:19: [detlint] package-level math/rand draws from the global source; use a locally seeded *rand.Rand`,
		`internal/figures/figures.go:24: [detlint] iteration over a map reaches output (fmt.Println at line 25) without an intervening sort; collect and sort the keys first`,
		`internal/figures/figures.go:51: [detlint] iteration over a map reaches output (fmt.Println at line 53) only through a nested map iteration; the outer order is nondeterministic too — sort the keys at every level`,
		`internal/figures/figures.go:52: [detlint] iteration over a map reaches output (fmt.Println at line 53) without an intervening sort; collect and sort the keys first`,
		"invflow/invflow.go:13: [invgate] (*inv.Recorder).Failf" + invgateSuffix,
		`invflow/invflow.go:26: [invgate] (*inv.Recorder).Failf taken as a value escapes the On() gating discipline (call it directly under a guard)`,
		`invflow/invflow.go:32: [invgate] (*inv.Recorder).Fail taken as a value escapes the On() gating discipline (call it directly under a guard)`,
		`suppress/suppress.go:17: [lint] unused suppression: no invgate finding here — remove the //lint:ignore or restore the violation it documented`,
	}
	res := fixtureRun(t)
	var got []string
	for _, f := range res.Findings {
		got = append(got, f.String())
	}
	if len(got) != len(want) {
		t.Fatalf("finding count = %d, want %d\ngot:\n  %s", len(got), len(want), strings.Join(got, "\n  "))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestFixtureOneDiagnosticPerCase asserts the acceptance cases each
// yield exactly one diagnostic: an unregistered stats key, a time.Now in
// internal/figures, an unguarded rec.Failf, a bare rec.Failf whose only
// caller guards, a fail function taken as a value, and a stale
// suppression.
func TestFixtureOneDiagnosticPerCase(t *testing.T) {
	res := fixtureRun(t)
	cases := []struct {
		name  string
		match func(f Finding) bool
	}{
		{"unregistered key", func(f Finding) bool {
			return f.Pass == "statskey" && strings.Contains(f.Msg, `"fixture/unregistered"`)
		}},
		{"time.Now in figures", func(f Finding) bool {
			return f.Pass == "detlint" && f.File == "internal/figures/figures.go" && strings.Contains(f.Msg, "time.Now")
		}},
		{"unguarded field-held Failf", func(f Finding) bool {
			return f.Pass == "invgate" && strings.Contains(f.Msg, "Recorder).Failf") && f.Line == 27
		}},
		{"unguarded Failf on a handed recorder", func(f Finding) bool {
			return f.Pass == "invgate" && strings.Contains(f.Msg, "Recorder).Failf") && f.Line == 64
		}},
		{"bare Failf behind a guarding caller", func(f Finding) bool {
			return f.Pass == "invgate" && f.File == "invflow/invflow.go" && f.Line == 13
		}},
		{"Failf taken as a value", func(f Finding) bool {
			return f.Pass == "invgate" && f.File == "invflow/invflow.go" && f.Line == 26
		}},
		{"stale suppression audited", func(f Finding) bool {
			return f.Pass == "lint" && f.File == "suppress/suppress.go" && strings.Contains(f.Msg, "unused suppression")
		}},
	}
	for _, c := range cases {
		n := 0
		for _, f := range res.Findings {
			if c.match(f) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d diagnostics, want exactly 1", c.name, n)
		}
	}
}

// TestFixturePatterns checks package-pattern selection: linting only
// ./bad must drop the figures findings and keep the bad ones.
func TestFixturePatterns(t *testing.T) {
	res := fixtureRun(t, "./bad")
	if len(res.Findings) == 0 {
		t.Fatal("no findings for ./bad")
	}
	for _, f := range res.Findings {
		if !strings.HasPrefix(f.File, "bad/") {
			t.Errorf("pattern ./bad leaked finding in %s", f.File)
		}
	}
	if res = fixtureRun(t, "./internal/..."); len(res.Findings) != 5 {
		t.Errorf("./internal/... yielded %d findings, want the 5 figures ones", len(res.Findings))
	}
}

// TestFixtureKeyIndex checks the registry/reference index: referenced
// keys index their use sites, and the deliberately unreferenced
// fixture/orphan key indexes nothing.
func TestFixtureKeyIndex(t *testing.T) {
	res := fixtureRun(t)
	wantKeys := []string{"fixture/good", "fixture/ignored", "fixture/orphan", "fixture/table"}
	if len(res.Keys) != len(wantKeys) {
		t.Fatalf("Keys = %v, want %v", res.Keys, wantKeys)
	}
	for i := range wantKeys {
		if res.Keys[i] != wantKeys[i] {
			t.Fatalf("Keys = %v, want %v", res.Keys, wantKeys)
		}
	}
	if len(res.KeyIndex["fixture/good"]) == 0 {
		t.Error("fixture/good has no references despite direct use in good/good.go")
	}
	if len(res.KeyIndex["fixture/table"]) == 0 {
		t.Error("fixture/table has no references despite the keyTable use")
	}
	if refs := res.KeyIndex["fixture/orphan"]; len(refs) != 0 {
		t.Errorf("fixture/orphan has %d references, want 0 (the registry itself must not count)", len(refs))
	}
}
