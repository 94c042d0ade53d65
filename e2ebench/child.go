package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/figures"
	"repro/internal/fsim"
	"repro/internal/run"
	"repro/internal/stats"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// unitEnv carries a unit's JSON spec to the child process that runs it. The
// benchmark binary (or its test binary) re-executes itself with it set.
const unitEnv = "E2EBENCH_UNIT"

// readyLine is what a child prints once its set-up is done and the measured
// work starts; the parent times set-up up to its arrival.
const readyLine = "e2ebench: ready"

// unitResult is what a child reports back on the last line of its output.
type unitResult struct {
	Err    string `json:"err,omitempty"`
	Digest string `json:"digest,omitempty"`
	Spans  []span `json:"spans,omitempty"`
	// Counters are the run's stats counters (timing and functional units).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Steps is the event engine's step count (timing units).
	Steps uint64 `json:"steps,omitempty"`
	// SimulatedPS is the simulated run time (timing units).
	SimulatedPS int64 `json:"simulated_ps,omitempty"`
	// NewSetBytes is the heap allocated by workload.NewSet (traced units).
	NewSetBytes uint64 `json:"newset_bytes,omitempty"`
	// CannealGainPct is the sweep's fig16 canneal emcc-vs-morphable cell.
	CannealGainPct float64 `json:"canneal_gain_pct,omitempty"`
	// Scenarios counts the simulations the sweep's cold pass executed.
	Scenarios int `json:"scenarios,omitempty"`
	// CheckUnits and CheckFailed count check.Run's results.
	CheckUnits  int `json:"check_units,omitempty"`
	CheckFailed int `json:"check_failed,omitempty"`
	// Probes holds the per-layer unit costs of a probe unit.
	Probes map[string]float64 `json:"probes,omitempty"`
}

// childMain runs the unit described by specJSON, writing the ready line and
// then the result as one JSON line to out.
func childMain(specJSON string, out io.Writer) int {
	var spec unitSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(out, `{"err":%q}`+"\n", "bad unit spec: "+err.Error())
		return 2
	}
	res := runUnit(spec, func() { fmt.Fprintln(out, readyLine) })
	if err := json.NewEncoder(out).Encode(res); err != nil {
		return 1
	}
	return 0
}

// runUnit executes one unit in this process. ready is called when the
// measured work is about to start; a unit that fails before that never
// calls it. A panic in the simulator is reported as the unit's error, like
// any other failure.
func runUnit(spec unitSpec, ready func()) (res unitResult) {
	rec := &recorder{on: spec.Traced}
	defer func() {
		if p := recover(); p != nil {
			res = unitResult{Err: fmt.Sprintf("panic: %v\n%s", p, debug.Stack())}
		}
		res.Spans = rec.spans
	}()
	var err error
	switch spec.Kind {
	case kindTiming:
		res, err = runTiming(spec, rec, ready)
	case kindFunctional:
		res, err = runFunctional(spec, rec, ready)
	case kindSweep:
		res, err = runSweep(spec, rec, ready)
	case kindCheck:
		res, err = runCheck(spec, rec, ready)
	case kindProbe:
		ready()
		res.Probes, err = runProbes(spec)
	default:
		err = fmt.Errorf("unknown unit kind %q", spec.Kind)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// newSet builds the unit's generators ahead of the simulator when tracing,
// so workload set-up (the RMAT graph build of the graph benchmarks) is timed
// apart from simulator construction; the simulator then reuses the cached
// graph. It returns the heap bytes the call allocated.
func newSet(spec unitSpec, cfg *config.Config, rec *recorder) (uint64, error) {
	if !rec.on {
		return 0, nil
	}
	var err error
	heap := allocated(func() {
		rec.time("workload.newset", func() {
			_, err = workload.NewSet(spec.Benchmark, cfg.Cores, spec.Seed, spec.Scale)
		})
	})
	return heap, err
}

// allocated runs fn and returns the heap bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func runTiming(spec unitSpec, rec *recorder, ready func()) (unitResult, error) {
	var res unitResult
	sc, err := spec.scenario()
	if err != nil {
		return res, err
	}
	if res.NewSetBytes, err = newSet(spec, &sc.Config, rec); err != nil {
		return res, err
	}
	var ts *tsim.Sim
	rec.time("tsim.new", func() { ts, err = sc.NewTiming() })
	if err != nil {
		return res, err
	}
	ready()
	var r tsim.Result
	rec.time("tsim.run", func() { r = ts.Run() })
	res.Steps = ts.Engine().Steps()
	res.SimulatedPS = int64(r.SimulatedTime)
	snap, err := snapshot(ts.Stats(), rec, &res)
	if err != nil {
		return res, err
	}
	if r.Instructions <= 0 {
		return res, fmt.Errorf("timing run retired %d instructions", r.Instructions)
	}
	if n := snap.Counter(stats.TsimLoad) + snap.Counter(stats.TsimStore); n != spec.Refs {
		return res, fmt.Errorf("timing run issued %d loads+stores for %d refs", n, spec.Refs)
	}
	return res, nil
}

func runFunctional(spec unitSpec, rec *recorder, ready func()) (unitResult, error) {
	var res unitResult
	sc, err := spec.scenario()
	if err != nil {
		return res, err
	}
	if res.NewSetBytes, err = newSet(spec, &sc.Config, rec); err != nil {
		return res, err
	}
	var fs *fsim.Sim
	rec.time("fsim.new", func() { fs, err = sc.NewFunctional() })
	if err != nil {
		return res, err
	}
	ready()
	rec.time("fsim.run", fs.Run)
	snap, err := snapshot(fs.Stats(), rec, &res)
	if err != nil {
		return res, err
	}
	if n := snap.Counter(stats.FsimDataRead) + snap.Counter(stats.FsimDataWrite); n != spec.Refs {
		return res, fmt.Errorf("functional run replayed %d reads+writes for %d refs", n, spec.Refs)
	}
	return res, nil
}

// snapshot takes the run's stats snapshot, digests it and keeps its
// counters for the per-layer metrics.
func snapshot(set *stats.Set, rec *recorder, res *unitResult) (stats.Snapshot, error) {
	var snap stats.Snapshot
	rec.time("stats.snapshot", func() { snap = set.Snapshot() })
	buf, err := snap.StableJSON()
	if err != nil {
		return snap, err
	}
	res.Digest = digest(buf)
	res.Counters = snap.Counters
	return snap, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runSweep builds fig16 the way cmd/report -quick does: planned,
// deduplicated and executed on two workers into a fresh result cache; then a
// second harness rebuilds it from that cache alone. A zero Refs keeps the
// Quick budgets.
func runSweep(spec unitSpec, rec *recorder, ready func()) (unitResult, error) {
	var res unitResult
	cache, err := run.OpenCache(spec.Dir)
	if err != nil {
		return res, err
	}
	// Every graph benchmark of the figure shares one RMAT graph, and BFS and
	// DFS each share one traversal order. Building them here makes them
	// set-up, and leaves the workers only reading workload's graph cache,
	// which takes no lock.
	cfg := config.Default()
	res.NewSetBytes = allocated(func() {
		for _, b := range []string{"BFS", "DFS"} {
			rec.time("workload.newset", func() {
				var gens []workload.Generator
				if gens, err = workload.NewSet(b, cfg.Cores, spec.Seed, spec.Scale); err == nil {
					gens[0].Next()
				}
			})
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		return res, err
	}
	harness := func() *figures.Harness {
		h := figures.NewHarness(true)
		h.Seed = spec.Seed
		sc := spec.Scale
		h.ScaleOverride = &sc
		h.RefsOverride = spec.Refs
		h.Workers = 2
		h.Cache = cache
		return h
	}
	ready()
	var cold, warm *figures.Table
	coldH, warmH := harness(), harness()
	rec.time("figures.cold", func() { cold, _ = coldH.ByID("fig16") })
	rec.time("figures.warm", func() { warm, _ = warmH.ByID("fig16") })
	if cold == nil || warm == nil {
		return res, fmt.Errorf("figures: no fig16 table")
	}
	var coldText, warmText bytes.Buffer
	cold.Fprint(&coldText)
	warm.Fprint(&warmText)
	res.Digest = digest(coldText.Bytes())
	res.Scenarios = coldH.Report().Executed
	if r := warmH.Report(); r.Executed != 0 || r.Cached != res.Scenarios {
		return res, fmt.Errorf("warm pass executed %d and served %d from the cache; want 0 and %d",
			r.Executed, r.Cached, res.Scenarios)
	}
	if !bytes.Equal(coldText.Bytes(), warmText.Bytes()) {
		return res, fmt.Errorf("warm fig16 table differs from the cold one")
	}
	if res.CannealGainPct, err = cellPct(cold, "canneal", len(cold.Header)-1); err != nil {
		return res, err
	}
	return res, nil
}

// cellPct reads a percentage cell ("3.1%") of a table row.
func cellPct(t *figures.Table, row string, col int) (float64, error) {
	for _, r := range t.Rows {
		if len(r) > col && r[0] == row {
			return strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s row", t.ID, row)
}

// runCheck runs the verification harness with cmd/check's defaults but the
// unit's Refs on two workers; a zero Refs keeps check's default budget.
func runCheck(spec unitSpec, rec *recorder, ready func()) (unitResult, error) {
	var res unitResult
	opt := check.Options{Seed: spec.Seed, Refs: spec.Refs, Parallel: 2}
	ready()
	var rs []check.Result
	rec.time("check.run", func() { rs = check.Run(opt) })
	var report strings.Builder
	for _, r := range rs {
		fmt.Fprintln(&report, r)
	}
	res.Digest = digest([]byte(report.String()))
	res.CheckUnits, res.CheckFailed = len(rs), check.Failed(rs)
	if res.CheckFailed > 0 {
		return res, fmt.Errorf("%d of %d checks failed", res.CheckFailed, len(rs))
	}
	return res, nil
}
