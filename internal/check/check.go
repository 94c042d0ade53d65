// Package check is the verification harness that cross-validates the
// repository's three independent models of secure memory:
//
//   - differential tests run one seeded synthetic workload through the
//     functional simulator (fsim) and the timing simulator (tsim) and
//     require their classification counts to agree, and drive the
//     functional secure memory (secmem) and the timing layer's metadata
//     authority (mc.Home) with identical write sequences and require their
//     counter state to agree exactly;
//   - metamorphic properties perturb configurations and require the
//     responses to move the right way (more AES latency can't speed the
//     machine up, more DRAM channels can't add queuing delay, EMCC can't
//     lose its own analytic timelines);
//   - invariant checks read the same fsim and tsim runs, each made with
//     its own internal/inv recorder enabled, and require zero recorded
//     violations plus post-run conservation between requested and
//     performed DRAM fills.
//
// Run validates its options once and runs every pillar's checks as
// independent units. The units share a per-Run memo (simMemo) that
// simulates each distinct (simulator, config) pair once and hands the
// result to every unit that asks for it, so a run several checks need
// costs one simulation. Traced runs and runs with a warm-up are never
// shared; each unit builds and owns those outright.
//
// cmd/check runs everything and prints a report; `go test ./internal/check`
// runs the same pillars plus deliberately-broken inputs proving each pillar
// can fail.
package check

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/workload"
)

// Pillar labels which verification family a result belongs to.
type Pillar string

// The three pillars.
const (
	PillarDifferential Pillar = "differential"
	PillarMetamorphic  Pillar = "metamorphic"
	PillarInvariant    Pillar = "invariant"
)

// Result is one named check's outcome.
type Result struct {
	Pillar Pillar
	Name   string
	Pass   bool
	Detail string
}

// String renders one report line.
func (r Result) String() string {
	mark := "PASS"
	if !r.Pass {
		mark = "FAIL"
	}
	return fmt.Sprintf("%-4s [%-12s] %-52s %s", mark, r.Pillar, r.Name, r.Detail)
}

// Options tunes how much work the suite does.
type Options struct {
	// Seed drives workload generation.
	Seed uint64
	// Refs is the total memory references per simulated run, except
	// tsim-channel-qdelay's: that check runs its own 4-core load of a
	// fixed 30 k references (channelRefs), sized by its measured margin.
	// It must leave every core at least one reference.
	Refs int64
	// Benchmark is the synthetic workload every simulated run draws its
	// references from.
	Benchmark string
	// Cores is the simulated core count (cache pressure scales with it).
	Cores int
	// Quick halves the reference budget (cmd/check -quick).
	Quick bool
	// Parallel is the number of workers Run executes its check units on
	// (0 or 1 = serial). Units share only Run's memo of simulations,
	// which computes each entry once and then only hands it out to be
	// read, so parallelism never changes any result — only the
	// wall-clock time.
	Parallel int
}

// withDefaults fills unset fields and applies Quick. It is idempotent:
// the halving clears Quick, so options defaulted once — by Run, then again
// by the checks they are handed — keep the budget Run validated.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 12
	}
	if o.Refs == 0 {
		o.Refs = 60_000
	}
	if o.Benchmark == "" {
		o.Benchmark = "canneal"
	}
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.Quick {
		o.Refs /= 2
		o.Quick = false
	}
	return o
}

// validate reports why defaulted options cannot drive a Run: every run
// draws a known benchmark's references, and every core needs at least one.
func (o Options) validate() error {
	if o.Cores <= 0 {
		return fmt.Errorf("check: cores must be positive, got %d", o.Cores)
	}
	if o.Refs < int64(o.Cores) {
		return fmt.Errorf("check: %d references leave some of %d cores none", o.Refs, o.Cores)
	}
	_, err := workload.SpaceBytes(o.Benchmark, o.Cores, workload.TestScale())
	return err
}

// Run executes every pillar and returns all results. Options that cannot
// drive a run — an unknown benchmark, no cores, fewer references than
// cores — give one failing result and run nothing. The units —
// differential, metamorphic and invariant alike — run on opt.Parallel
// workers. They share one thing: a per-Run simMemo that simulates each
// distinct (simulator, config) pair once, and each of channelQueueing's
// two runs of its own load once, and hands the same read-only result to
// every unit that asks for it. A unit builds and owns its traced runs
// outright. The workers first fill channelQueueing's two runs, the
// longest tasks of a small-budget Run, so they do not start last and
// finish after everything else; then they take the units in list order.
// Results land in fixed slots, so the report order — and with
// deterministic simulators, every byte of it — is identical at any
// parallelism.
func Run(opt Options) []Result {
	rs, _ := run(opt)
	return rs
}

// run is Run, also returning the memo its units shared so tests can count
// the simulations it ran; the memo is nil when the options are rejected.
func run(opt Options) ([]Result, *simMemo) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return []Result{failf(PillarDifferential, "options", "%v", err)}, nil
	}
	m := newSimMemo(opt)
	m.channels = newSimMemo(channelOptions(opt))
	units := append(diffUnits(m), metamorphicUnits(m)...)
	units = append(units, invariantUnits(m)...)
	slots := make([][]Result, len(units))
	// The first two tasks fill channelQueueing's runs, the longest at
	// small budgets; a run's error is left for the unit that reads it.
	var tasks []func()
	for _, channels := range []int{1, 4} {
		tasks = append(tasks, func() { m.channels.tsim(channelConfig(channels)) })
	}
	for i, unit := range units {
		tasks = append(tasks, func() { slots[i] = unit() })
	}
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
				tasks[i]()
			}
		}()
	}
	wg.Wait()
	var out []Result
	for _, rs := range slots {
		out = append(out, rs...)
	}
	return out, m
}

// Failed counts failing results.
func Failed(rs []Result) int {
	n := 0
	for _, r := range rs {
		if !r.Pass {
			n++
		}
	}
	return n
}

// pass/fail helpers.
func passf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func failf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: false, Detail: fmt.Sprintf(format, args...)}
}
