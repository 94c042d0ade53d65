// Command check runs the verification harness (internal/check): differential
// fsim-vs-tsim/secmem comparisons, metamorphic configuration properties and
// invariant-instrumented simulation runs. It prints one line per check and
// exits non-zero if any fail.
//
// The units of all three pillars fan out across -parallel goroutines
// (default: GOMAXPROCS). They share one recorded trace and a memo that
// simulates each distinct replay of it once for every unit that needs it;
// invariant-recorded and traced runs stay private to their unit.
// Parallelism changes only the wall-clock time, never the report. -quick
// records a trace of half the reference budget and replays all of it.
//
// Usage:
//
//	go run ./cmd/check [-quick] [-seed N] [-refs N] [-bench name] [-cores N] [-parallel N]
//	    [-cpuprofile file] [-memprofile file] [-exectrace file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/check"
	"repro/internal/config"
	"repro/internal/profile"
	"repro/internal/prov"
)

func main() {
	opt := check.Options{}
	flag.Uint64Var(&opt.Seed, "seed", 0, "workload seed (0 = default)")
	flag.Int64Var(&opt.Refs, "refs", 0, "memory references per run (0 = default)")
	flag.StringVar(&opt.Benchmark, "bench", "", "synthetic benchmark to trace (empty = default)")
	flag.IntVar(&opt.Cores, "cores", 0, "simulated cores (0 = default)")
	flag.BoolVar(&opt.Quick, "quick", false, "halve the reference budget")
	flag.IntVar(&opt.Parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent check units (1 = serial)")
	prof := profile.Register(flag.CommandLine, "check")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "check:", err)
		os.Exit(1)
	}
	defer prof.Done()

	cfg := config.Default()
	fmt.Printf("# %s\n", prov.Line(prov.Manifest(&cfg, map[string]string{
		"tool":     "check",
		"seed":     fmt.Sprint(opt.Seed),
		"refs":     fmt.Sprint(opt.Refs),
		"parallel": fmt.Sprint(opt.Parallel),
	})))
	results := check.Run(opt)
	for _, r := range results {
		fmt.Println(r)
	}
	failed := check.Failed(results)
	fmt.Printf("\n%d checks, %d failed\n", len(results), failed)
	if failed > 0 {
		prof.Exit(1)
	}
}
