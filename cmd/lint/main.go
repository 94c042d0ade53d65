// Command lint runs the project's static-analysis suite (internal/
// analysis) over the module, four per-package passes: statskey (stats-key
// registry discipline), detlint (determinism of golden-compared output),
// obsnil (nil-safe tracer call sites) and invgate (a recorder's Failf
// behind its On()).
//
// Usage:
//
//	go run ./cmd/lint ./...
//	go run ./cmd/lint ./internal/... ./cmd/...
//
// Findings print one per line as "file:line: [pass] message" with paths
// relative to the module root, and any finding exits non-zero. Suppress
// a finding with `//lint:ignore <pass> <reason>` on the same line or the
// line above; mark an intentionally dynamic stats-key family with
// `//lint:dynamic-key`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	dir := flag.String("C", ".", "directory to start the go.mod search from")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: lint [-C dir] [package patterns, default ./...]\npasses: %v\n", analysis.Passes())
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	res, err := analysis.Run(root, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		os.Exit(2)
	}
	for _, f := range res.Findings {
		fmt.Println(f)
	}
	if n := len(res.Findings); n > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
