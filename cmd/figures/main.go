// Command figures regenerates the paper's tables and figures. Each figure
// prints the same rows/series the paper plots, with the paper's reported
// numbers quoted in the trailing notes for comparison.
//
// Usage:
//
//	figures -fig fig16            # one figure
//	figures -all                  # everything (takes a while)
//	figures -all -quick           # smoke-test sizes
//	figures -all -j 8             # run scenarios on 8 workers
//	figures -all -cache .figcache # reuse simulation results across runs
//	figures -list                 # enumerate figure ids
//	figures -all -cpuprofile cpu.pprof  # profile the regeneration
//
// Tables are byte-identical at any -j; -cache keys entries by scenario
// config hash and code revision, so stale results are never served.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/figures"
	"repro/internal/profile"
	"repro/internal/run"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure id to regenerate (see -list)")
		all      = flag.Bool("all", false, "regenerate every figure")
		quick    = flag.Bool("quick", false, "shrink run lengths (noisier shapes)")
		list     = flag.Bool("list", false, "list figure ids and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		asCSV    = flag.Bool("csv", false, "emit CSV instead of aligned text")
		chart    = flag.Bool("chart", false, "render percentage columns as ASCII bars")
		workers  = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS, 1 = serial)")
		cacheDir = flag.String("cache", "", "directory for the persistent result cache")
	)
	prof := profile.Register(flag.CommandLine, "figures")
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
	defer prof.Done()

	if *list {
		fmt.Println(strings.Join(figures.IDs(), " "))
		return
	}
	h := figures.NewHarness(*quick)
	h.Workers = *workers
	if *cacheDir != "" {
		c, err := run.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: cache: %v\n", err)
			prof.Exit(1)
		}
		h.Cache = c
	}
	if !*quiet {
		h.Log = os.Stderr
	}
	emit := func(t *figures.Table) {
		if *chart {
			t.FprintChart(os.Stdout)
			return
		}
		if *asCSV {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "figures: csv: %v\n", err)
				prof.Exit(1)
			}
			fmt.Println()
			return
		}
		t.Fprint(os.Stdout)
	}
	switch {
	case *all:
		for _, t := range h.All() {
			emit(t)
		}
	case *fig != "":
		t, ok := h.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "figures: unknown figure %q; try -list\n", *fig)
			prof.Exit(1)
		}
		emit(t)
	default:
		fmt.Fprintln(os.Stderr, "figures: pass -fig <id> or -all (see -list)")
		prof.Exit(1)
	}
}
