// Package check is the verification harness that cross-validates the
// repository's three independent models of secure memory:
//
//   - differential tests replay one recorded trace through the functional
//     simulator (fsim) and the timing simulator (tsim) and require their
//     trace-driven classification counts to agree, and drive the functional
//     secure memory (secmem) and the timing layer's metadata authority
//     (mc.Home) with identical write sequences and require their counter
//     state to agree exactly;
//   - metamorphic properties perturb configurations and require the
//     responses to move the right way (more AES latency can't speed the
//     machine up, more DRAM channels can't add queuing delay, EMCC can't
//     lose its own analytic timelines);
//   - invariant runs execute both simulators with internal/inv enabled and
//     require zero recorded violations plus post-run conservation between
//     requested and performed DRAM fills.
//
// Run records one trace and runs every pillar's checks over it as
// independent units. The units share a per-Run memo (simMemo) that
// simulates each distinct tsim replay of the trace once and hands the
// result to every unit that asks for that config, so a config several
// checks need costs one run. Runs that carry a recorder, tracer or their
// own input are never shared; each unit builds and owns those outright.
//
// cmd/check runs everything and prints a report; `go test ./internal/check`
// runs the same pillars plus deliberately-broken inputs proving each pillar
// can fail.
package check

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/trace"
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
	// Seed drives trace recording and workload generation.
	Seed uint64
	// Refs is the total memory references per simulated run.
	Refs int64
	// Benchmark is the synthetic workload the differential trace records.
	Benchmark string
	// Cores is the simulated core count (cache pressure scales with it).
	Cores int
	// Quick halves the reference budget (cmd/check -quick).
	Quick bool
	// Parallel is the number of check units Run executes concurrently
	// (0 or 1 = serial). Units share only the recorded trace and Run's
	// memo of replays, which computes each entry once and then only
	// hands it out to be read, so parallelism never changes any result —
	// only the wall-clock time.
	Parallel int
}

// withDefaults fills unset fields and applies Quick. It is idempotent:
// the halving clears Quick, so options defaulted once — by Run, then again
// by the checks they are handed — keep the budget that was recorded.
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

// Run executes every pillar and returns all results. The units —
// differential, metamorphic and invariant alike — fan out across
// opt.Parallel goroutines over one read-only recorded trace. They share
// one thing besides it: a per-Run simMemo that simulates each distinct
// replay of that trace once and hands the same read-only result to every
// unit that asks for it. Everything else a unit runs — invariant-recorded
// and traced runs among them — it builds and owns outright. Results land
// in fixed slots, so the report order — and with deterministic simulators,
// every byte of it — is identical at any parallelism.
func Run(opt Options) []Result {
	rs, _ := run(opt)
	return rs
}

// run is Run, also returning the memo its units shared so tests can count
// the simulations it ran.
func run(opt Options) ([]Result, *simMemo) {
	opt = opt.withDefaults()
	m := recordMemo(opt)
	if m.err != nil {
		return []Result{failf(PillarDifferential, "record-trace", "%v", m.err)}, nil
	}
	units := append(diffUnits(m), metamorphicUnits(m)...)
	units = append(units, invariantUnits(m.tr, opt)...)
	slots := make([][]Result, len(units))
	workers := opt.Parallel
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, unit := range units {
		i, unit := i, unit
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			slots[i] = unit()
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

// recordTrace captures the differential input: a seeded synthetic workload
// serialized through internal/trace, so both simulators replay the exact
// same reference stream (and the trace codec itself is exercised).
func recordTrace(opt Options) (*trace.Trace, error) {
	var buf bytes.Buffer
	sc := workload.TestScale()
	if _, err := trace.Record(&buf, opt.Benchmark, opt.Cores, opt.Seed, opt.Refs, sc); err != nil {
		return nil, err
	}
	return trace.Read(&buf)
}

// pass/fail helpers.
func passf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: true, Detail: fmt.Sprintf(format, args...)}
}

func failf(p Pillar, name, format string, args ...interface{}) Result {
	return Result{Pillar: p, Name: name, Pass: false, Detail: fmt.Sprintf(format, args...)}
}
