package check

import (
	"bytes"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// Determinism: the same configuration and seed must produce byte-identical
// statistics on repeated runs. Both simulators are built on deterministic
// structures (FIFO tie-break event heap, slice-based caches), so any
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

func TestFsimDeterminism(t *testing.T) {
	opt := quickOpt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range diffSystems {
		t.Run(system, func(t *testing.T) {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, system); err != nil {
				t.Fatal(err)
			}
			var runs [2][]byte
			for i := range runs {
				st, err := runFsim(&cfg, tr, opt.Refs, nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = stableJSON(t, st)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Errorf("fsim %s: two identical runs produced different stats", system)
			}
		})
	}
}

func TestTsimDeterminism(t *testing.T) {
	opt := quickOpt.withDefaults()
	tr, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, system := range diffSystems {
		t.Run(system, func(t *testing.T) {
			cfg := config.Default()
			if err := config.ApplySystem(&cfg, system); err != nil {
				t.Fatal(err)
			}
			var runs [2][]byte
			for i := range runs {
				st, err := runTsim(&cfg, tr, opt.Refs, nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = stableJSON(t, st)
			}
			if !bytes.Equal(runs[0], runs[1]) {
				t.Errorf("tsim %s: two identical runs produced different stats", system)
			}
		})
	}
}

// TestTraceRecordDeterminism: recording the same workload twice must give
// identical traces (the differential pillar depends on it).
func TestTraceRecordDeterminism(t *testing.T) {
	opt := quickOpt.withDefaults()
	a, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cores != b.Cores || a.Footprint != b.Footprint || len(a.PerCore) != len(b.PerCore) {
		t.Fatalf("trace shape differs: %+v vs %+v", a, b)
	}
	for c := range a.PerCore {
		if len(a.PerCore[c]) != len(b.PerCore[c]) {
			t.Fatalf("core %d: %d vs %d accesses", c, len(a.PerCore[c]), len(b.PerCore[c]))
		}
		for i := range a.PerCore[c] {
			if a.PerCore[c][i] != b.PerCore[c][i] {
				t.Fatalf("core %d access %d differs", c, i)
			}
		}
	}
}
