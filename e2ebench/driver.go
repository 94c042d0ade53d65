package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// unitRun is one execution of one unit in its own child process.
type unitRun struct {
	Spec   unitSpec   `json:"spec"`
	Span   span       `json:"span"` // spawn to exit, as the parent saw it
	WallS  float64    `json:"wall_s"`
	SetupS float64    `json:"setup_s"` // spawn to the child's ready line
	CPUS   float64    `json:"cpu_s"`   // user + system time of the child
	RSSMB  float64    `json:"rss_mb"`  // the child's peak resident set
	Res    unitResult `json:"result"`
	// Err is why the unit failed: an error or panic in the child, a failed
	// output check, or a digest that differs from an earlier repeat.
	Err string `json:"err,omitempty"`
}

// pass is one run over all units of a workload, in order.
type pass struct {
	Traced        bool      `json:"traced"`
	CalibrationMS float64   `json:"calibration_ms"`
	Span          span      `json:"span"`
	Units         []unitRun `json:"units"`
}

func (p pass) ok() bool {
	for _, u := range p.Units {
		if u.Err != "" {
			return false
		}
	}
	return true
}

// spawner runs units as fresh child processes of the benchmark's own
// binary. A fresh process per unit gives each its own peak RSS, a cold
// workload graph cache and a cold heap, as a fresh emccsim or report
// invocation has.
type spawner struct {
	exe     string
	workDir string // parent of the scratch directories of sweep and probe units
}

func (s spawner) run(spec unitSpec) unitRun {
	if spec.Kind == kindSweep || spec.Kind == kindProbe {
		dir, err := os.MkdirTemp(s.workDir, spec.Kind+"-")
		if err != nil {
			return unitRun{Spec: spec, Err: err.Error()}
		}
		defer os.RemoveAll(dir)
		spec.Dir = dir
	}
	u := unitRun{Spec: spec, Span: span{Name: "bench.unit", Unit: spec.Name}}
	buf, err := json.Marshal(spec)
	if err != nil {
		u.Err = err.Error()
		return u
	}
	cmd := exec.Command(s.exe)
	cmd.Env = append(os.Environ(), unitEnv+"="+string(buf))
	// The child dies with the parent, so an interrupted run leaves nothing.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		u.Err = err.Error()
		return u
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		u.Err = err.Error()
		return u
	}
	var ready time.Time
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if sc.Text() == readyLine && ready.IsZero() {
			ready = time.Now()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	end := time.Now()
	u.Span.Start, u.Span.End = start.UnixNano(), end.UnixNano()
	u.WallS = end.Sub(start).Seconds()
	if !ready.IsZero() {
		u.SetupS = ready.Sub(start).Seconds()
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		u.RSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	switch {
	case scanErr != nil:
		u.Err = "reading the unit's output: " + scanErr.Error()
	case json.Unmarshal(last, &u.Res) != nil:
		u.Err = fmt.Sprintf("unit exited (%v) without a result: %s", waitErr, tail(stderr.String()))
	case u.Res.Err != "":
		u.Err = u.Res.Err
	case waitErr != nil:
		u.Err = fmt.Sprintf("unit exited: %v: %s", waitErr, tail(stderr.String()))
	}
	return u
}

// tail keeps the end of a child's error output for the report.
func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 2000 {
		s = "..." + s[len(s)-2000:]
	}
	return s
}

// digests tracks each unit's output digest across the repeats of one run:
// a deterministic simulator must reproduce it exactly.
type digests map[string]string

// check records u's digest, or marks u failed when it differs from the
// digest an earlier repeat of the same unit produced.
func (d digests) check(u *unitRun) {
	if u.Err != "" {
		return
	}
	if u.Res.Digest == "" {
		u.Err = "unit reported no output digest"
		return
	}
	if first, ok := d[u.Spec.Name]; !ok {
		d[u.Spec.Name] = u.Res.Digest
	} else if first != u.Res.Digest {
		u.Err = fmt.Sprintf("output digest %.12s differs from the first repeat's %.12s", u.Res.Digest, first)
	}
}

// runOptions configures one benchmark run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string
}

// minPasses is the fewest passes a run makes, whatever its time budget: one,
// or in a traced run one plain and one traced pass, so that the tracing
// overhead has a plain pass to compare against.
func minPasses(trace bool) int {
	if trace {
		return 2
	}
	return 1
}

// measure runs passes over the workload's units until the next pass would
// end past the time budget, and returns them. In a traced run the passes
// alternate between plain and traced, starting plain.
func measure(opt runOptions, us []unitSpec, sp spawner, start time.Time, log func(string, ...any)) []pass {
	seen := digests{}
	var passes []pass
	var durs []float64
	for i := 0; ; i++ {
		elapsed := time.Since(start).Seconds()
		if i >= minPasses(opt.trace) && elapsed+summarize(durs).Median > opt.seconds {
			break
		}
		p := pass{Traced: opt.trace && i%2 == 1, CalibrationMS: calibrate()}
		p.Span = span{Name: "bench.pass", Unit: fmt.Sprintf("pass%d", i), Start: time.Now().UnixNano()}
		for _, spec := range us {
			spec.Traced = p.Traced
			u := sp.run(spec)
			seen.check(&u)
			if u.Err != "" {
				log("unit %s failed: %s", spec.Name, u.Err)
			}
			p.Units = append(p.Units, u)
		}
		p.Span.End = time.Now().UnixNano()
		durs = append(durs, p.Span.seconds())
		log("pass %d (traced %v): %.2fs, calibration %.1fms", i, p.Traced, p.Span.seconds(), p.CalibrationMS)
		passes = append(passes, p)
	}
	return passes
}

// calibrate times a fixed amount of integer work on the host, in ms. It is
// recorded before every pass so that a host whose speed drifts during a
// run is visible in the artifact; no metric is corrected by it.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for range 20_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// allSpans flattens a run's spans into one tree with IDs: pass spans at
// the root, unit spans below them, and each child's layer spans below its
// unit.
func allSpans(passes []pass, probe *unitRun) []span {
	var out []span
	add := func(s span, parent int) int {
		s.ID, s.Parent = len(out)+1, parent
		out = append(out, s)
		return s.ID
	}
	addUnit := func(u unitRun, parent int) {
		id := add(u.Span, parent)
		for _, s := range u.Res.Spans {
			s.Unit = u.Span.Unit
			add(s, id)
		}
	}
	for i, p := range passes {
		id := add(p.Span, 0)
		for _, u := range p.Units {
			u.Span.Unit = fmt.Sprintf("pass%d/%s", i, u.Spec.Name)
			addUnit(u, id)
		}
	}
	if probe != nil {
		addUnit(*probe, 0)
	}
	return out
}
