package check

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// Golden stats snapshots guard cmd/report's inputs: the figure harness
// reads these counters, accumulators and histograms, so an unnoticed shift
// here becomes an unnoticed shift in every reproduced figure. The whole
// StableJSON snapshot must match byte for byte. Both simulators are
// deterministic, so any difference is a behaviour change, and the
// repository's "output byte-identical" claims rest on this test: a
// tolerance would let a change that reorders events or tweaks a model pass
// as identical. A change meant to move output regenerates the files with
// -update and says so in CHANGES.md.

func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden.json")
}

func checkGolden(t *testing.T, name string, st *stats.Set) {
	t.Helper()
	got, err := st.Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := goldenPath(name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot differs from %s at %s (run with -update to regenerate)", path, firstDiff(want, got))
	}
}

// firstDiff locates the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: golden %q, got %q", i+1, strings.TrimSpace(wl[i]), strings.TrimSpace(gl[i]))
		}
	}
	return fmt.Sprintf("the end: golden has %d lines, got %d", len(wl), len(gl))
}

func TestGoldenStats(t *testing.T) {
	opt := quickOpt.withDefaults()
	for _, system := range diffSystems {
		cfg := config.Default()
		if err := config.ApplySystem(&cfg, system); err != nil {
			t.Fatal(err)
		}
		for _, functional := range []bool{true, false} {
			name := "tsim-" + system
			if functional {
				name = "fsim-" + system
			}
			t.Run(name, func(t *testing.T) {
				_, st, err := simulate(functional, &cfg, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, st)
			})
		}
	}
}
