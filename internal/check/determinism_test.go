package check

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// Determinism: the same configuration and seed must produce byte-identical
// statistics on repeated runs. Both simulators are built on deterministic
// structures (FIFO tie-break event queue, slice-based caches), so any
// divergence here means hidden map-iteration or scheduling nondeterminism
// crept in — which would silently break every golden and differential test.

func stableJSON(t *testing.T, st *stats.Set) []byte {
	t.Helper()
	b, err := st.Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFsimDeterminism(t *testing.T) { testDeterminism(t, true) }

func TestTsimDeterminism(t *testing.T) { testDeterminism(t, false) }

// testDeterminism runs every system twice through one simulator, fsim
// (functional) or tsim, and requires byte-identical snapshots.
func testDeterminism(t *testing.T, functional bool) {
	opt := quickOpt.withDefaults()
	for _, system := range diffSystems {
		t.Run(system, func(t *testing.T) {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, system); err != nil {
				t.Fatal(err)
			}
			var runs [2][]byte
			for i := range runs {
				_, st, err := simulate(functional, &cfg, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = stableJSON(t, st)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Errorf("%s: two identical runs produced different stats", system)
			}
		})
	}
}
