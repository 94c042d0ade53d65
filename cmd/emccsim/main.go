// Command emccsim runs one simulation configuration and prints its
// statistics. It is the low-level tool; cmd/figures regenerates the paper's
// figures from batches of these runs.
//
// Usage:
//
//	emccsim -mode functional -bench canneal -refs 2000000 -system emcc
//	emccsim -mode timing -bench mcf -refs 300000 -system morphable
//	emccsim -mode timing -bench mcf -cache .simcache   # reuse prior results
//	emccsim -mode functional -cpuprofile cpu.pprof     # profile the run
//	emccsim -mode timing -system emcc -refs 200000 -trace emcc.json
//	emccsim -mode timing -sample 16 -trace t.json -flight f.csv -openmetrics m.prom
//	emccsim -record canneal.trc -bench canneal -refs 2000000
//	emccsim -replay canneal.trc -mode timing -system emcc
//
// -trace attaches the per-request critical-path tracer (internal/obs) to a
// timing run: it writes a Chrome/Perfetto trace_event file and a
// FILE.prov.json provenance sidecar, and appends the latency-attribution
// report (per-segment table, decrypt overlap, the 10 slowest requests) to
// the text output. Open the file at https://ui.perfetto.dev (or
// chrome://tracing): each core is a process, each in-flight request a
// thread pair — the data lane and the crypto lane — so EMCC's decrypt
// overlap shows as parallel bars. -sample traces every Nth request.
// -flight writes the flight recorder's interval series (.json = JSON, else
// CSV) from a traced run, and -openmetrics the final stats snapshot of any
// run as OpenMetrics text. Traced runs (-trace, -flight) neither read nor
// write -cache: the scenario key covers neither the tracer's statistics
// nor its side files.
//
// -record writes the -bench/-seed/-refs/-small reference stream, interleaved
// over the configuration's cores, to a trace file (internal/trace) and
// exits; any other flag beside it but the profile flags is an error, since
// the recording would ignore it. -replay runs a recorded trace in place of
// a synthetic benchmark: the trace fixes the benchmark, seed and scale, so
// those flags are errors beside it, and without -refs the run covers the
// file once. A replay is
// an ordinary scenario keyed by the trace's SHA-256, so every other flag
// applies to it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/prov"
	runner "repro/internal/run"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fixed settings of a traced run.
const (
	// seriesPeriodNS is the tracer's time-series sampling interval (queue
	// depths, MSHR occupancy, AES utilisation).
	seriesPeriodNS = 1000
	// flightPeriodNS is the flight recorder's interval; flightCap bounds
	// its ring (the oldest intervals drop).
	flightPeriodNS = 10_000
	flightCap      = 1 << 16
)

// errUsage reports a flag error the flag package has already printed,
// together with the usage.
var errUsage = errors.New("bad flags")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "emccsim:", err)
		os.Exit(1)
	}
}

// run parses args, runs the simulation they describe and prints its
// results to stdout. The -cpuprofile/-memprofile/-exectrace profiles are
// stopped and written before it returns, on error paths too.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("emccsim", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "functional", "functional (Pintool-style counting) or timing (gem5-style)")
		bench    = fs.String("bench", "canneal", "benchmark name; -list to enumerate")
		list     = fs.Bool("list", false, "list benchmarks and exit")
		system   = fs.String("system", "morphable", "non-secure | sc64 | morphable | emcc | mono | bipbip | insram | <any>+nollc")
		refs     = fs.Int64("refs", 2_000_000, "memory references to replay")
		warm     = fs.Int64("warmup", 0, "functional warmup references before measuring")
		seed     = fs.Uint64("seed", 1, "workload seed")
		small    = fs.Bool("small", false, "use the miniature test scale")
		llcMB    = fs.Int64("llc-mb", 0, "override LLC size in MiB (0 = Table I)")
		ctrKB    = fs.Int64("ctr-kb", 0, "override MC counter cache KiB (0 = Table I)")
		aesNS    = fs.Float64("aes-ns", 0, "override AES latency in ns (0 = Table I)")
		chans    = fs.Int("channels", 0, "override DRAM channel count (0 = Table I)")
		aesFrac  = fs.Float64("aes-frac", -1, "override fraction of AES units moved to L2 (EMCC)")
		l2ctrKB  = fs.Int64("l2ctr-kb", 0, "override EMCC L2 counter cap KiB (0 = default 32)")
		xpt      = fs.Bool("xpt", false, "enable XPT LLC-miss prediction")
		pfDeg    = fs.Int("prefetch", 0, "L2 stride-prefetch degree (0 = off)")
		dynOff   = fs.Bool("dynamic-off", false, "enable the Sec. IV-F intensity monitor (EMCC)")
		asJSON   = fs.Bool("json", false, "emit results as JSON")
		cacheDir = fs.String("cache", "", "directory for the persistent result cache (untraced runs)")
		chrome   = fs.String("trace", "", "Chrome trace output `file` of a timing run, plus file.prov.json and a latency report")
		sample   = fs.Uint64("sample", 1, "trace every Nth request (1 = all)")
		flight   = fs.String("flight", "", "flight-recorder output `file` of a timing run (.json = JSON, else CSV)")
		openMet  = fs.String("openmetrics", "", "OpenMetrics text-exposition `file` of the final stats snapshot")
		record   = fs.String("record", "", "write the -bench/-seed/-refs/-small reference stream to trace `file` and exit")
		replay   = fs.String("replay", "", "replay the recorded trace `file` instead of a synthetic benchmark (one pass unless -refs is set)")
	)
	// Every flag but the profile flags, which Register adds below.
	simFlag := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { simFlag[f.Name] = true })
	prof := profile.Register(fs, "emccsim")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"record", "bench", "seed", "small"} {
		if *replay != "" && set[name] {
			return fmt.Errorf("-%s cannot be combined with -replay: the trace fixes the benchmark, seed and scale it replays", name)
		}
	}
	if *record != "" {
		extra := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "record", "bench", "seed", "refs", "small":
			default:
				if simFlag[f.Name] && extra == "" {
					extra = f.Name
				}
			}
		})
		if extra != "" {
			return fmt.Errorf("-%s cannot be combined with -record: a recording takes only -bench, -seed, -refs, -small and the profile flags", extra)
		}
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, prof.Stop()) }()

	if *list {
		fmt.Fprintln(stdout, "primary (large/irregular):", strings.Join(workload.PrimaryNames(), " "))
		fmt.Fprintln(stdout, "regular (Fig 24):", strings.Join(workload.RegularNames(), " "))
		return nil
	}

	cfg := config.Default()
	if err := config.ApplySystem(&cfg, *system); err != nil {
		return err
	}
	if *llcMB > 0 {
		cfg.L3Bytes = *llcMB << 20
	}
	if *ctrKB > 0 {
		cfg.CtrCacheBytes = *ctrKB << 10
	}
	if *aesNS > 0 {
		cfg.AESLatency = sim.NS(*aesNS)
	}
	if *chans > 0 {
		cfg.Channels = *chans
	}
	if *aesFrac >= 0 {
		cfg.EMCCAESFraction = *aesFrac
	}
	if *l2ctrKB > 0 {
		cfg.EMCCL2CounterBytes = *l2ctrKB << 10
	}
	cfg.XPT = *xpt
	cfg.PrefetchL2Degree = *pfDeg
	cfg.EMCCDynamicOff = *dynOff

	scale := workload.DefaultScale()
	if *small {
		scale = workload.TestScale()
	}
	if *record != "" {
		return recordTrace(stdout, *record, *bench, cfg.Cores, *seed, *refs, scale)
	}

	var runMode runner.Mode
	switch *mode {
	case "functional":
		runMode = runner.Functional
	case "timing":
		runMode = runner.Timing
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	traced := *chrome != "" || *flight != ""
	if traced && runMode != runner.Timing {
		return fmt.Errorf("-trace and -flight need -mode timing, not -mode %s", *mode)
	}

	// Tracing attaches to the built simulator and never enters the config,
	// so a traced run prints the same config-hash and scenario as the
	// untraced run of the same flags.
	sc := runner.Scenario{
		Mode: runMode, Benchmark: *bench, Config: cfg,
		Seed: *seed, Refs: *refs, Warmup: *warm, Scale: scale,
		Label: *bench,
	}
	var info string
	if *replay != "" {
		tr, err := loadTrace(*replay)
		if err != nil {
			return err
		}
		var n int64
		n, info = describe(tr)
		sc.Benchmark, sc.Label, sc.Cores, sc.Replay = tr.Name, tr.Name, tr.Cores, tr
		sc.Seed, sc.Scale = 0, workload.Scale{}
		if !set["refs"] {
			sc.Refs = n
		}
	}
	fields := map[string]string{
		"tool":      "emccsim",
		"mode":      *mode,
		"benchmark": sc.Benchmark,
		"seed":      fmt.Sprint(sc.Seed),
		"refs":      fmt.Sprint(sc.Refs),
		"warmup":    fmt.Sprint(*warm),
		"scenario":  sc.Key(),
	}
	if sc.Replay != nil {
		delete(fields, "seed")
		fields["replay"] = *replay
		fields["replay-sha256"] = sc.Replay.Digest
	}
	if traced {
		fields["sample"] = fmt.Sprint(*sample)
		fields["cached"] = "false"
	}
	if *chrome != "" {
		fields["out"] = *chrome
	}
	manifest := prov.Manifest(&cfg, fields)

	var (
		o      *runner.Outcome
		report string
	)
	if traced {
		o, report, err = traceRun(&sc, manifest, *chrome, *flight, *sample)
	} else {
		var cache *runner.Cache
		if *cacheDir != "" {
			if cache, err = runner.OpenCache(*cacheDir); err != nil {
				return err
			}
		}
		var executed bool
		o, executed, err = runner.Resolve(&sc, cache)
		manifest["cached"] = fmt.Sprint(!executed)
	}
	if err != nil {
		return err
	}
	// The manifest describes this invocation, not the (possibly cached)
	// execution, so it overwrites whatever provenance rode along in the
	// cache entry.
	o.Stats.Provenance = manifest
	if *openMet != "" {
		if err := writeFile(*openMet, o.Stats.WriteOpenMetrics); err != nil {
			return err
		}
	}

	if info != "" && !*asJSON {
		fmt.Fprintf(stdout, "# %s\n", info)
	}
	switch runMode {
	case runner.Functional:
		if *asJSON {
			return emitJSON(stdout, map[string]interface{}{
				"mode": "functional", "system": cfg.SystemName(), "benchmark": sc.Benchmark,
				"refs": sc.Refs, "stats": o.Stats,
			})
		}
		fmt.Fprintf(stdout, "# functional %s on %s, %d refs\n", cfg.SystemName(), sc.Benchmark, sc.Refs)
		fmt.Fprintf(stdout, "# %s\n", prov.Line(manifest))
		fmt.Fprint(stdout, o.Stats.Dump())
	case runner.Timing:
		res := o.Timing
		if *asJSON {
			util := map[string]float64{}
			for k, v := range res.BusyFraction {
				util[k.String()] = v
			}
			return emitJSON(stdout, map[string]interface{}{
				"mode": "timing", "system": cfg.SystemName(), "benchmark": sc.Benchmark,
				"refs": sc.Refs, "simulated_ms": res.SimulatedTime.Nanoseconds() / 1e6,
				"instructions": res.Instructions, "ipc": res.IPC,
				"l2_miss_latency_ns": res.L2MissLatencyNS,
				"decrypt_at_l2_frac": res.DecryptAtL2Frac,
				"dram_util":          util,
				"stats":              o.Stats,
			})
		}
		fmt.Fprintf(stdout, "# timing %s on %s, %d refs\n", cfg.SystemName(), sc.Benchmark, sc.Refs)
		fmt.Fprintf(stdout, "# %s\n", prov.Line(manifest))
		fmt.Fprintf(stdout, "simulated-time-ms            %.3f\n", res.SimulatedTime.Nanoseconds()/1e6)
		fmt.Fprintf(stdout, "instructions                 %d\n", res.Instructions)
		fmt.Fprintf(stdout, "ipc                          %.3f\n", res.IPC)
		fmt.Fprintf(stdout, "l2-miss-latency-ns           %.2f\n", res.L2MissLatencyNS)
		fmt.Fprintf(stdout, "decrypt-at-l2-frac           %.3f\n", res.DecryptAtL2Frac)
		kinds := make([]dram.TrafficKind, 0, len(res.BusyFraction))
		for k := range res.BusyFraction {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		for _, k := range kinds {
			fmt.Fprintf(stdout, "dram-util/%-18s %.3f\n", k, res.BusyFraction[k])
		}
		fmt.Fprint(stdout, o.Stats.Dump())
		if traced {
			fmt.Fprintf(stdout, "\n%s", report)
		}
	}
	return nil
}

// traceRun runs the timing scenario with the tracer attached. It streams
// the Chrome trace to tracePath and writes its sidecar, writes the flight
// series to flightPath (each skipped when its path is empty), and returns
// the outcome with the tracer's latency report.
func traceRun(sc *runner.Scenario, manifest map[string]string, tracePath, flightPath string, sample uint64) (*runner.Outcome, string, error) {
	s, err := sc.NewTiming()
	if err != nil {
		return nil, "", err
	}
	s.Stats().SetProvenance(manifest)
	// The Chrome file's otherData block carries the masked manifest so the
	// trace stream stays byte-deterministic for a fixed seed; the full
	// manifest (wall time, toolchain, revision) goes to the sidecar.
	opt := obs.Options{
		Stats:        s.Stats(),
		Sample:       sample,
		SamplePeriod: sim.NS(seriesPeriodNS),
		Meta:         prov.Masked(manifest),
	}
	var chrome *os.File
	if tracePath != "" {
		if chrome, err = os.Create(tracePath); err != nil {
			return nil, "", err
		}
		defer chrome.Close()
		opt.Writer = chrome
	}
	tr := obs.New(opt)
	s.SetTracer(tr)
	var rec *metrics.Recorder
	if flightPath != "" {
		rec = metrics.NewRecorder(s.Stats(), flightCap)
		s.SetFlightRecorder(rec, sim.NS(flightPeriodNS))
	}
	res := s.Run()
	if err := tr.Close(); err != nil {
		return nil, "", err
	}
	if chrome != nil {
		if err := chrome.Close(); err != nil {
			return nil, "", err
		}
		sidecar, err := prov.JSON(manifest)
		if err != nil {
			return nil, "", err
		}
		if err := os.WriteFile(tracePath+".prov.json", sidecar, 0o644); err != nil {
			return nil, "", err
		}
	}
	if rec != nil {
		write := rec.WriteCSV
		if strings.HasSuffix(flightPath, ".json") {
			write = rec.WriteJSON
		}
		if err := writeFile(flightPath, write); err != nil {
			return nil, "", err
		}
	}
	var report strings.Builder
	obs.WriteSummary(&report, s.Stats())
	obs.WriteTopRequests(&report, tr.TopRequests())
	return &runner.Outcome{Stats: s.Stats().Snapshot(), Timing: &res}, report.String(), nil
}

// recordTrace writes refs references of bench, interleaved over cores, to
// the trace file path.
func recordTrace(stdout io.Writer, path, bench string, cores int, seed uint64, refs int64, scale workload.Scale) error {
	var n int64
	err := writeFile(path, func(w io.Writer) (err error) {
		n, err = trace.Record(w, bench, cores, seed, refs, scale)
		return err
	})
	if err != nil {
		return fmt.Errorf("-record %s: %w", path, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d refs of %s into %s (%.1f MB, %.2f B/ref)\n",
		n, bench, path, float64(st.Size())/1e6, float64(st.Size())/float64(n))
	return nil
}

// loadTrace reads and verifies the trace file at path.
func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("-replay %s: %w", path, err)
	}
	return tr, nil
}

// describe counts a trace's references and renders the header line its
// replay prints.
func describe(tr *trace.Trace) (refs int64, line string) {
	var writes int64
	for _, pc := range tr.PerCore {
		refs += int64(len(pc))
		for _, a := range pc {
			if a.Write {
				writes++
			}
		}
	}
	return refs, fmt.Sprintf("trace %s: %d cores, %d MB footprint, %d references (%.1f%% writes)",
		tr.Name, tr.Cores, tr.Footprint>>20, refs, 100*float64(writes)/float64(refs))
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func emitJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
