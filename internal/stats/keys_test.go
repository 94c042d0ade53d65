package stats_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// lintModule runs the linter over the whole module once per test binary:
// its Keys are the constants declared in keys.go and its KeyIndex their
// references.
var lintModule = sync.OnceValues(func() (*analysis.Result, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return analysis.Run(root, "./...")
})

func registered(t *testing.T) *analysis.Result {
	t.Helper()
	res, err := lintModule()
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	if len(res.Keys) == 0 {
		t.Fatal("empty registry")
	}
	return res
}

// TestKeyHygiene enforces the registry naming contract: every key is
// lowercase, slash-separated into non-empty [a-z0-9-] segments, and
// declared exactly once.
func TestKeyHygiene(t *testing.T) {
	keys := registered(t).Keys
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
		for _, seg := range strings.Split(k, "/") {
			if seg == "" {
				t.Errorf("key %q has an empty segment", k)
				continue
			}
			for _, r := range seg {
				if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
					t.Errorf("key %q: segment %q has character %q outside [a-z0-9-]", k, seg, r)
					break
				}
			}
		}
	}
}

// TestNoOrphanKeys cross-checks the registry against the linter's
// reference index: every registered key must be used somewhere outside
// the registry, or it is dead vocabulary that belongs deleted.
func TestNoOrphanKeys(t *testing.T) {
	res := registered(t)
	for _, k := range res.Keys {
		if len(res.KeyIndex[k]) == 0 {
			t.Errorf("orphan key %q: registered but never referenced outside internal/stats", k)
		}
	}
}
