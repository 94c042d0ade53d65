package main

import (
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/run"
	"repro/internal/secmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sink keeps the compiler from discarding the results of probed calls.
var sink uint64

// probeRepeats is how often each probe is timed; the median is kept.
const probeRepeats = 3

// perOp times fn, which performs ops operations, probeRepeats times and
// returns the median cost of one operation in ns.
func perOp(ops int, fn func()) float64 {
	var ts []float64
	for range probeRepeats {
		start := time.Now()
		fn()
		ts = append(ts, float64(time.Since(start).Nanoseconds())/float64(ops))
	}
	return summarize(ts).Median
}

// runProbes measures each layer's unit cost in isolation by driving its
// public API with the unit's own reference stream. Isolated probes run with
// warm host caches, so they understate the cost the same call has inside a
// full simulation; the shares derived from them are estimates.
func runProbes(spec unitSpec) (map[string]float64, error) {
	cfg := config.Default()
	gens, err := workload.NewSet(spec.Benchmark, cfg.Cores, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}
	n := int(spec.Refs)
	stream := make([]workload.Access, n)
	out := map[string]float64{}

	start := time.Now()
	for i := range stream {
		stream[i] = gens[0].Next()
	}
	out["workload.next_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	out["cache.lookup_ns"] = perOp(n, func() {
		c := cache.New("probe.l2", cfg.L2Bytes, cfg.L2Ways)
		for _, a := range stream {
			if blk := a.Addr >> 6; !c.Lookup(blk) {
				c.Insert(blk, a.Write, addr.KindData)
			}
		}
	})

	out["sim.tick_ns"] = perOp(n, func() {
		eng := sim.New()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(100, tick)
			}
		}
		eng.After(100, tick)
		eng.Run()
	})

	// One request outstanding at a time: the host cost of a request's
	// scheduling and completion events, without queueing behind others.
	out["dram.req_ns"] = perOp(n, func() {
		eng := sim.New()
		d := dram.New(eng, stats.NewSet(), &cfg)
		i := 0
		var issue func()
		issue = func() {
			a := stream[i]
			i++
			d.Enqueue(&dram.Request{Block: a.Addr >> 6, Write: a.Write, Kind: dram.TrafficData, Done: func(sim.Time) {
				if i < n {
					issue()
				}
			}})
		}
		eng.At(0, issue)
		eng.Run()
	})

	out["mc.aes_reserve_ns"] = perOp(n, func() {
		p := mc.NewAESPool(sim.New(), cfg.AESPeakOpsPerSec, cfg.AESLatency)
		for i := range n {
			sink += uint64(p.Reserve(5, sim.Time(i)*1000))
		}
	})

	out["noc.oneway_ns"] = perOp(n, func() {
		m := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
		for i, a := range stream {
			sink += uint64(m.OneWay(m.CoreTile(i%m.CoreTiles()), m.SliceOf(a.Addr>>6)))
		}
	})

	key := []byte("e2ebench probe k")
	block := make([]byte, 64)
	out["crypto.block_ns"] = perOp(n, func() {
		e := crypto.NewEngine(key)
		for i, a := range stream {
			e.Encrypt(block, block, a.Addr&^63, uint64(i))
		}
	})

	if err := probeSecmem(stream[:min(n, 20_000)], key, out); err != nil {
		return nil, err
	}

	o, err := probeObs(spec, out)
	if err != nil {
		return nil, err
	}
	if err := probeCache(spec.Dir, o, out); err != nil {
		return nil, err
	}
	return out, nil
}

// probeSecmem prices a write and a verified read of the functional secure
// memory, which walk counters, MACs and the integrity tree. Each block is
// read right after its write: a block written thousands of writes earlier
// can fail verification once an interior tree counter has overflowed, which
// is a defect of the model this probe must not trip over.
func probeSecmem(stream []workload.Access, key []byte, out map[string]float64) error {
	const secBytes = 16 << 20
	block := make([]byte, 64)
	var ws, rs []float64
	for range probeRepeats {
		mem, err := secmem.New(secBytes, config.CtrMorphable, key)
		if err != nil {
			return err
		}
		var w, r time.Duration
		for _, a := range stream {
			at := a.Addr % secBytes &^ 63
			t0 := time.Now()
			if _, err := mem.Write(at, block); err != nil {
				return fmt.Errorf("secmem probe: %w", err)
			}
			t1 := time.Now()
			if _, err := mem.Read(at); err != nil {
				return fmt.Errorf("secmem probe: %w", err)
			}
			w, r = w+t1.Sub(t0), r+time.Since(t1)
		}
		ws = append(ws, float64(w.Nanoseconds())/float64(len(stream)))
		rs = append(rs, float64(r.Nanoseconds())/float64(len(stream)))
	}
	out["secmem.write_ns"] = summarize(ws).Median
	out["secmem.read_ns"] = summarize(rs).Median
	return nil
}

// probeObs prices the simulator's per-request tracer: canneal under emcc
// with and without run.Scenario.Trace, alternated, medians compared. It
// returns the untraced outcome for the cache probe.
func probeObs(spec unitSpec, out map[string]float64) (*run.Outcome, error) {
	u := unitSpec{Kind: kindTiming, Benchmark: "canneal", System: "emcc", Seed: spec.Seed,
		Refs: spec.Obs.Refs, Warmup: spec.Obs.Warmup, Scale: spec.Obs.Scale}
	plain, err := u.scenario()
	if err != nil {
		return nil, err
	}
	traced := plain
	traced.Trace = true
	var o *run.Outcome
	var pt, tt []float64
	for range probeRepeats {
		for _, sc := range []*run.Scenario{&plain, &traced} {
			start := time.Now()
			got, err := sc.Execute()
			if err != nil {
				return nil, err
			}
			d := time.Since(start).Seconds()
			if sc.Trace {
				tt = append(tt, d)
			} else {
				pt, o = append(pt, d), got
			}
		}
	}
	out["obs.traced_overhead_frac"] = summarize(tt).Median/summarize(pt).Median - 1
	return o, nil
}

// probeCache prices the result cache's write and read of one outcome.
func probeCache(dir string, o *run.Outcome, out map[string]float64) error {
	c, err := run.OpenCache(dir)
	if err != nil {
		return err
	}
	const entries = 50
	start := time.Now()
	for i := range entries {
		if err := c.Put(fmt.Sprintf("probe-%02d", i), o); err != nil {
			return err
		}
	}
	out["run.cache_put_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6 / entries
	start = time.Now()
	for i := range entries {
		if _, ok := c.Get(fmt.Sprintf("probe-%02d", i)); !ok {
			return fmt.Errorf("result cache: entry probe-%02d not served back", i)
		}
	}
	out["run.cache_get_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6 / entries
	return nil
}
