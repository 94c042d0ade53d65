package check

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// Golden stats snapshots guard cmd/report's inputs: the figure harness
// reads these counters, so an unnoticed shift here becomes an unnoticed
// shift in every reproduced figure. Counters must match the snapshot within
// a small tolerance (exact is intentional overkill while both simulators
// are deterministic; the slack leaves room for benign modelling tweaks,
// which must land with a -update of the goldens and a CHANGES.md note).

const (
	goldenRelTol = 0.05
	goldenAbsTol = 8
)

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

func checkGoldenCounters(t *testing.T, name string, st *stats.Set) {
	t.Helper()
	snap := st.Snapshot()
	path := goldenPath(name)
	if *updateGolden {
		b, err := snap.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want stats.Snapshot
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for k, wv := range want.Counters {
		gv, ok := snap.Counters[k]
		if !ok {
			t.Errorf("counter %q vanished (golden %d)", k, wv)
			continue
		}
		if !withinTol(gv, wv) {
			t.Errorf("counter %q = %d, golden %d (tol %.0f%% / %d)", k, gv, wv, goldenRelTol*100, int(goldenAbsTol))
		}
	}
	for k := range snap.Counters {
		if _, ok := want.Counters[k]; !ok {
			t.Errorf("new counter %q not in golden (run with -update)", k)
		}
	}
}

func withinTol(got, want int64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	larger := got
	if want > larger {
		larger = want
	}
	allow := int64(goldenRelTol * float64(larger))
	if allow < goldenAbsTol {
		allow = goldenAbsTol
	}
	return diff <= allow
}

func TestGoldenStats(t *testing.T) {
	opt := quickOpt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range diffSystems {
		cfg, err := systemConfig(system)
		if err != nil {
			t.Fatal(err)
		}
		t.Run("fsim-"+system, func(t *testing.T) {
			st, err := runFsim(&cfg, tr, opt.Refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenCounters(t, "fsim-"+system, st)
		})
		t.Run("tsim-"+system, func(t *testing.T) {
			st, err := runTsim(&cfg, tr, opt.Refs, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenCounters(t, "tsim-"+system, st)
		})
	}
}
