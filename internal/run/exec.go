package run

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// Options tunes plan execution.
type Options struct {
	// Workers is the worker-pool width. 0 means GOMAXPROCS; 1 executes
	// serially in plan declaration order (the historical lazy order).
	Workers int
	// Cache, when non-nil, serves outcomes whose key+code-identity file
	// exists and persists every outcome executed here.
	Cache *Cache
	// Log, when non-nil, receives one progress line per scenario. Writes
	// are serialised under a mutex, so any io.Writer is safe.
	Log io.Writer
}

// Report summarises one Execute call.
type Report struct {
	// Executed counts simulations actually run.
	Executed int
	// Cached counts outcomes served from the persistent cache.
	Cached int
}

// Resolve returns the scenario's outcome: served from the cache when
// possible, executed (and cached) otherwise. The bool reports whether a
// simulation actually ran.
func Resolve(s *Scenario, c *Cache) (*Outcome, bool, error) {
	return resolve(s, c, func(bool) {})
}

// resolve is Resolve with a hook that learns where the outcome comes from
// before the scenario executes or right after its cached outcome is read.
// An execution or cache-write error is wrapped with the scenario's mode
// and label.
func resolve(s *Scenario, c *Cache, from func(cached bool)) (*Outcome, bool, error) {
	key := s.Key()
	if c != nil {
		if o, ok := c.Get(key); ok {
			from(true)
			return o, false, nil
		}
	}
	from(false)
	o, err := s.Execute()
	if err == nil && c != nil {
		err = c.Put(key, o)
	}
	if err != nil {
		return nil, true, fmt.Errorf("run: %s %s: %w", s.Mode, s.Label, err)
	}
	return o, true, nil
}

// Execute runs every scenario of the plan and returns the outcomes keyed
// by scenario key. Scenarios are dispatched to the pool in declaration
// order and each owns its simulator and stats.Set, so the outcome map —
// and every table built from it — is identical at any worker count; only
// wall-clock time and progress-line interleaving change. The first error
// aborts dispatch of unstarted scenarios and is returned after in-flight
// ones drain.
func Execute(p *Plan, opt Options) (map[string]*Outcome, Report, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	scenarios := p.Scenarios()
	if workers > len(scenarios) {
		workers = len(scenarios)
	}

	var (
		mu    sync.Mutex // guards rep, firstErr and opt.Log
		rep   Report
		first error
	)
	logf := func(format string, args ...interface{}) {
		if opt.Log == nil {
			return
		}
		fmt.Fprintf(opt.Log, format+"\n", args...)
	}

	outs := make([]*Outcome, len(scenarios))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := scenarios[i]
				o, _, err := resolve(s, opt.Cache, func(cached bool) {
					mu.Lock()
					defer mu.Unlock()
					if cached {
						rep.Cached++
						logf("%-10s %-32s (cached)", s.Mode, s.Label)
					} else {
						rep.Executed++
						logf("%-10s %-32s (%s refs)", s.Mode, s.Label, refsLabel(s.Refs))
					}
				})
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					continue
				}
				outs[i] = o
			}
		}()
	}
dispatch:
	for i := range scenarios {
		mu.Lock()
		failed := first != nil
		mu.Unlock()
		if failed {
			break dispatch
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if first != nil {
		return nil, rep, first
	}

	out := make(map[string]*Outcome, len(scenarios))
	for i, s := range scenarios {
		out[s.Key()] = outs[i]
	}
	return out, rep, nil
}

// refsLabel renders a reference budget compactly (2.0M, 250k, 900).
func refsLabel(refs int64) string {
	switch {
	case refs >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(refs)/1e6)
	case refs >= 1_000:
		return fmt.Sprintf("%dk", refs/1_000)
	}
	return fmt.Sprint(refs)
}
