package main

import (
	"math"
	"strings"

	"repro/internal/stats"
)

// metric declares one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test holds the two together) and adds the bounds.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run: what a user waiting on one
// pass over the workload sees. e2eMetrics computes them.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},       // one pass, every unit in a fresh process, each at its lower quartile
	{"setup_s", "s", "lower"},      // process start to the start of the measured work, summed
	{"peak_rss_mb", "MB", "lower"}, // the largest unit's peak resident set
}

// perLayer are the metrics of a traced run, named <layer>.<quantity> after
// the repository's packages. Spans and counts are medians over the traced
// passes; probes are in-process unit costs measured once per run; shares
// combine the two. A layer a workload does not run reads 0.
var perLayer = []metric{
	{"sim.events", "count", "lower"},               // count: Engine().Steps() of the timing units
	{"sim.events_per_ref", "events/ref", "lower"},  // count
	{"sim.ns_per_event", "ns", "lower"},            // span tsim.run / count
	{"sim.tick_ns", "ns", "lower"},                 // probe: one event scheduled and run
	{"sim.refs_per_s", "refs/s", "higher"},         // span: warm-up + refs over Run time, both simulators
	{"sim.est_share", "frac", "lower"},             // count x probe / tsim.run
	{"tsim.new_s", "s", "lower"},                   // span: run.Scenario.NewTiming after NewSet
	{"tsim.run_s", "s", "lower"},                   // span: tsim.Sim.Run
	{"tsim.ns_per_ref", "ns", "lower"},             // span / detailed refs (Run includes the warm-up)
	{"tsim.l2_miss_per_kref", "1/kref", "lower"},   // count
	{"tsim.llc_miss_frac", "frac", "lower"},        // count
	{"tsim.retry_per_kref", "1/kref", "lower"},     // count: DRAM queue-full retries
	{"tsim.glue_share", "frac", "lower"},           // 1 - the estimated shares
	{"workload.newset_s", "s", "lower"},            // span: workload.NewSet
	{"workload.newset_heap_mb", "MB", "lower"},     // heap allocated by NewSet
	{"workload.next_ns", "ns", "lower"},            // probe: Generator.Next
	{"workload.est_share", "frac", "lower"},        // refs x probe / tsim.run
	{"fsim.new_s", "s", "lower"},                   // span: run.Scenario.NewFunctional after NewSet
	{"fsim.run_s", "s", "lower"},                   // span: fsim.Sim.Run
	{"fsim.ns_per_ref", "ns", "lower"},             // span / (warm-up + refs)
	{"cache.lookup_ns", "ns", "lower"},             // probe: L2-sized cache lookup, insert on miss
	{"cache.l2_miss_frac", "frac", "lower"},        // count, both simulators
	{"dram.req_ns", "ns", "lower"},                 // probe: one request through the DRAM model
	{"dram.reqs_per_kref", "1/kref", "lower"},      // count
	{"dram.row_hit_frac", "frac", "higher"},        // count
	{"dram.est_share", "frac", "lower"},            // count x probe / tsim.run
	{"mc.aes_reserve_ns", "ns", "lower"},           // probe: AES pool reservation
	{"emcc.decrypt_at_l2_frac", "frac", "higher"},  // count
	{"emcc.useless_frac", "frac", "lower"},         // count: useless counter accesses / L2 data misses, emcc units
	{"emcc.canneal_gain_pct", "%", "higher"},       // count: canneal emcc over morphable (paper: 12.5)
	{"noc.oneway_ns", "ns", "lower"},               // probe: mesh one-way latency lookup
	{"crypto.block_ns", "ns", "lower"},             // probe: 64 B counter-mode block encryption
	{"secmem.write_ns", "ns", "lower"},             // probe: functional secure-memory write
	{"secmem.read_ns", "ns", "lower"},              // probe: functional secure-memory verified read
	{"stats.snapshot_ms", "ms", "lower"},           // span: stats.Set.Snapshot
	{"obs.traced_overhead_frac", "frac", "lower"},  // probe: run.Scenario{Trace: true} vs untraced
	{"run.cpu_util", "frac", "higher"},             // CPU time / wall time of the units
	{"run.scenarios", "count", "lower"},            // count: simulations the sweep's cold pass executed
	{"run.cache_put_ms", "ms", "lower"},            // probe: run.Cache.Put of one outcome
	{"run.cache_get_ms", "ms", "lower"},            // probe: run.Cache.Get of one outcome
	{"figures.cold_s", "s", "lower"},               // span: Harness.ByID("fig16") into an empty cache
	{"figures.warm_ms", "ms", "lower"},             // span: the same served from the cache
	{"check.units", "count", "higher"},             // count: check.Run results
	{"check.failed", "count", "lower"},             // count
	{"check.run_s", "s", "lower"},                  // span: check.Run
	{"proc.self_s", "s", "lower"},                  // unit process time outside every layer span
	{"bench.trace_overhead_frac", "frac", "lower"}, // traced pass wall / plain pass wall - 1
}

// paperCannealGainPct is the paper's canneal gain of EMCC over Morphable
// (Fig 16), which the artifact reports the distance to.
const paperCannealGainPct = 12.5

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eValues computes the end-to-end metrics of one pass.
func e2eValues(p pass) map[string]float64 {
	v := map[string]float64{}
	for _, u := range p.Units {
		v["wall_s"] += u.WallS
		v["setup_s"] += u.SetupS
		v["peak_rss_mb"] = math.Max(v["peak_rss_mb"], u.RSSMB)
	}
	return v
}

// e2eMetrics computes a run's end-to-end metrics from its correct untraced
// passes. wall_s sums, over the workload's units, the lower quartile of
// each unit's wall times in the run. A shared host's speed swings by tens of
// percent from one second to the next as other tenants come and go, so a
// pass's median follows the host; the faster repeats of a unit are what it
// costs when the host is quiet, and their lower quartile repeats from run to
// run more closely than the median or the fastest repeat alone. setup_s
// and peak_rss_mb are medians over the passes.
func e2eMetrics(passes []pass) map[string]float64 {
	if len(passes) == 0 {
		return nil
	}
	walls := make([][]float64, len(passes[0].Units)) // per unit, one per pass
	var setup, rss []float64
	for _, p := range passes {
		for j, u := range p.Units {
			walls[j] = append(walls[j], u.WallS)
		}
		v := e2eValues(p)
		setup = append(setup, v["setup_s"])
		rss = append(rss, v["peak_rss_mb"])
	}
	var wall float64
	for _, ws := range walls {
		wall += summarize(ws).Q1
	}
	return map[string]float64{
		"wall_s":      wall,
		"setup_s":     summarize(setup).Median,
		"peak_rss_mb": summarize(rss).Median,
	}
}

// cannealGainPct is the canneal gain of EMCC over Morphable a pass measured:
// from the paper-pair's two canneal runs, or the sweep's fig16 cell.
func cannealGainPct(p pass) (float64, bool) {
	var morph, emcc float64
	for _, u := range p.Units {
		switch {
		case u.Spec.Kind == kindSweep:
			return u.Res.CannealGainPct, true
		case u.Spec.Benchmark == "canneal" && u.Spec.Kind == kindTiming && u.Spec.System == "morphable":
			morph = float64(u.Res.SimulatedPS)
		case u.Spec.Benchmark == "canneal" && u.Spec.Kind == kindTiming && u.Spec.System == "emcc":
			emcc = float64(u.Res.SimulatedPS)
		}
	}
	if morph == 0 || emcc == 0 {
		return 0, false
	}
	// Performance is inverse run time, so emcc/morphable performance is
	// morphable/emcc time (figures.Harness.Fig16).
	return 100 * (morph/emcc - 1), true
}

// layerValues computes the per-layer metrics of one traced pass, given the
// run's probe results.
func layerValues(p pass, probes map[string]float64) map[string]float64 {
	v := map[string]float64{}
	spanS := map[string]float64{}
	ctr := map[string]float64{}
	var tsimRefs, tsimAll, fsimAll, steps, cpu, wall, useless, emccMisses float64
	for _, u := range p.Units {
		cpu += u.CPUS
		wall += u.WallS
		unit := append([]span{{ID: 1, Start: u.Span.Start, End: u.Span.End}}, u.Res.Spans...)
		for i, s := range u.Res.Spans {
			spanS[s.Name] += s.seconds()
			unit[i+1].Parent = 1
		}
		v["proc.self_s"] += selfSeconds(unit)[0]
		for k, n := range u.Res.Counters {
			ctr[k] += float64(n)
		}
		misses := float64(u.Res.Counters[stats.TsimL2DataMiss] + u.Res.Counters[stats.FsimL2DataMiss])
		if u.Spec.System == "emcc" {
			useless += float64(u.Res.Counters[stats.EmccUseless])
			emccMisses += misses
		}
		v["workload.newset_heap_mb"] += float64(u.Res.NewSetBytes) / (1 << 20)
		switch u.Spec.Kind {
		case kindTiming:
			tsimRefs += float64(u.Spec.Refs)
			tsimAll += float64(u.Spec.Refs + u.Spec.Warmup)
			steps += float64(u.Res.Steps)
		case kindFunctional:
			fsimAll += float64(u.Spec.Refs + u.Spec.Warmup)
		case kindSweep:
			v["run.scenarios"] += float64(u.Res.Scenarios)
		case kindCheck:
			v["check.units"] += float64(u.Res.CheckUnits)
			v["check.failed"] += float64(u.Res.CheckFailed)
		}
	}
	var dramReqs float64
	for k, n := range ctr {
		if strings.HasPrefix(k, "dram/access/") {
			dramReqs += n
		}
	}
	runNS := 1e9 * spanS["tsim.run"]

	v["sim.events"] = steps
	v["sim.events_per_ref"] = ratio(steps, tsimRefs)
	v["sim.ns_per_event"] = ratio(runNS, steps)
	v["sim.refs_per_s"] = ratio(tsimAll+fsimAll, spanS["tsim.run"]+spanS["fsim.run"])
	v["tsim.new_s"] = spanS["tsim.new"]
	v["tsim.run_s"] = spanS["tsim.run"]
	v["tsim.ns_per_ref"] = ratio(runNS, tsimRefs)
	v["tsim.l2_miss_per_kref"] = ratio(1000*ctr[stats.TsimL2DataMiss], tsimRefs)
	v["tsim.llc_miss_frac"] = ratio(ctr[stats.TsimLLCDataMiss], ctr[stats.TsimLLCDataAccess])
	v["tsim.retry_per_kref"] = ratio(1000*ctr[stats.TsimDRAMQueueFullRetry], tsimRefs)
	v["workload.newset_s"] = spanS["workload.newset"]
	v["fsim.new_s"] = spanS["fsim.new"]
	v["fsim.run_s"] = spanS["fsim.run"]
	v["fsim.ns_per_ref"] = ratio(1e9*spanS["fsim.run"], fsimAll)
	v["cache.l2_miss_frac"] = ratio(ctr[stats.TsimL2DataMiss]+ctr[stats.FsimL2DataMiss],
		ctr[stats.TsimLoad]+ctr[stats.TsimStore]+ctr[stats.FsimDataRead]+ctr[stats.FsimDataWrite])
	v["dram.reqs_per_kref"] = ratio(1000*dramReqs, tsimRefs)
	v["dram.row_hit_frac"] = ratio(ctr[stats.DramRowHit],
		ctr[stats.DramRowHit]+ctr[stats.DramRowClosed]+ctr[stats.DramRowConflict])
	v["emcc.decrypt_at_l2_frac"] = ratio(ctr[stats.EmccDecryptAtL2], ctr[stats.EmccDecryptAtL2]+ctr[stats.EmccDecryptAtMC])
	v["emcc.useless_frac"] = ratio(useless, emccMisses)
	v["emcc.canneal_gain_pct"], _ = cannealGainPct(p)
	v["stats.snapshot_ms"] = 1e3 * spanS["stats.snapshot"]
	v["run.cpu_util"] = ratio(cpu, wall)
	v["figures.cold_s"] = spanS["figures.cold"]
	v["figures.warm_ms"] = 1e3 * spanS["figures.warm"]
	v["check.run_s"] = spanS["check.run"]

	// Attribute tsim's Run time from outside: work counts times isolated
	// unit costs. The residual is everything the probes do not cover.
	v["sim.est_share"] = ratio(steps*probes["sim.tick_ns"], runNS)
	v["workload.est_share"] = ratio(tsimAll*probes["workload.next_ns"], runNS)
	v["dram.est_share"] = ratio(dramReqs*probes["dram.req_ns"], runNS)
	if runNS > 0 {
		v["tsim.glue_share"] = 1 - v["sim.est_share"] - v["workload.est_share"] - v["dram.est_share"]
	}
	for k, x := range probes {
		v[k] = x
	}
	return v
}
