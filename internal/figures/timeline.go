package figures

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/ctr"
	"repro/internal/noc"
	"repro/internal/sim"
)

// This file regenerates the latency-anatomy figures: the NoC measurements
// (Figs 3, 4) and the secure-memory-access timelines (Figs 5, 8, 10, 13,
// 14). Timelines are computed analytically from the configuration — the
// same way the paper draws them — using mean NoC latencies from the mesh.

// Fig3 reports the distribution of LLC hit latency over all (core, slice)
// pairs of the mesh.
func (h *Harness) Fig3() *Table {
	cfg := config.Default()
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	t := &Table{
		ID:     "fig3",
		Title:  "Distribution of LLC hit latency (ns)",
		Header: []string{"latency-ns", "share"},
		Notes:  []string{"paper: 16-29 ns, mean 23 ns on a Xeon W-3175X"},
	}
	counts := map[int]int{}
	total := 0
	var sum float64
	base := cfg.L1Latency + cfg.L2Latency + cfg.L3TagLatency + cfg.L3DataLatency
	for c := 0; c < mesh.CoreTiles(); c++ {
		src := mesh.CoreTile(c)
		for s := 0; s < mesh.CoreTiles(); s++ {
			dst := mesh.CoreTile(s)
			lat := base + mesh.RoundTrip(src, dst)
			nsLat := int(lat.Nanoseconds() + 0.5)
			counts[nsLat]++
			total++
			sum += lat.Nanoseconds()
		}
	}
	min, max := 1<<30, 0
	for k := range counts {
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	for k := min; k <= max; k++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f%%", 100*float64(counts[k])/float64(total)),
		})
	}
	mean := sum / float64(total)
	t.Rows = append(t.Rows, []string{"mean", fmt.Sprintf("%.1f ns", mean)})
	t.claim("mean-hit-latency", printed(mean))
	return t
}

// Fig4 renders the NoC route of one L2 miss: core -> home slice -> MC.
func (h *Harness) Fig4() *Table {
	cfg := config.Default()
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	const core, block = 0, 0x1234567
	route := mesh.RouteTrace(core, block)
	t := &Table{
		ID:     "fig4",
		Title:  "NoC route for an L2 miss (request path)",
		Header: []string{"step", "tile"},
	}
	for i, n := range route {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", i), fmt.Sprintf("tile %d", int(n))})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("core %d -> slice of block %#x -> home MC; %d tiles visited", core, block, len(route)),
		fmt.Sprintf("mean one-way tile latency: %.1f ns (paper: 7.5 ns)",
			mesh.MeanOneWay(mesh.CoreTile(0)).Nanoseconds()))
	return t
}

// span is one bar of a timeline.
type span struct {
	name       string
	start, end sim.Time
}

// timeline accumulates spans; respond is the completion time.
type timeline struct {
	label string
	spans []span
}

func (tl *timeline) add(name string, start, dur sim.Time) sim.Time {
	tl.spans = append(tl.spans, span{name, start, start + dur})
	return start + dur
}

func (tl *timeline) done() sim.Time {
	var end sim.Time
	for _, s := range tl.spans {
		if s.end > end {
			end = s.end
		}
	}
	return end
}

func (tl *timeline) rows(out *Table) {
	for _, s := range tl.spans {
		out.Rows = append(out.Rows, []string{
			tl.label, s.name,
			fmt.Sprintf("%.1f", s.start.Nanoseconds()),
			fmt.Sprintf("%.1f", s.end.Nanoseconds()),
		})
	}
	out.Rows = append(out.Rows, []string{tl.label, "RESPONSE", "", fmt.Sprintf("%.1f", tl.done().Nanoseconds())})
}

// latencies bundles the analytic building blocks.
type latencies struct {
	oneWay   sim.Time // mean tile-to-tile traversal
	llcTag   sim.Time
	llcData  sim.Time
	ctrCache sim.Time
	decode   sim.Time
	aes      sim.Time
	xor      sim.Time
	rowHit   sim.Time
	rowMiss  sim.Time
	l2       sim.Time
	j        sim.Time // EMCC serial L2 counter lookup delay
	payload  sim.Time // 'M': counter payload transfer penalty
}

func defaultLatencies() latencies {
	cfg := config.Default()
	return latenciesFor(&cfg)
}

// latenciesFor derives the analytic building blocks from an arbitrary
// configuration, so the timelines (and the verification harness's
// metamorphic properties over them) respond to config changes.
func latenciesFor(cfg *config.Config) latencies {
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	return latencies{
		oneWay:   mesh.MeanOneWay(mesh.CoreTile(0)),
		llcTag:   cfg.L3TagLatency,
		llcData:  cfg.L3DataLatency,
		ctrCache: cfg.CtrCacheLatency,
		decode:   decodeLatency(cfg.Counter),
		aes:      cfg.AESLatency,
		xor:      sim.NS(1),
		rowHit:   cfg.TCL + cfg.BurstLatency,
		rowMiss:  cfg.TRCD + cfg.TCL + cfg.BurstLatency,
		l2:       cfg.L2Latency,
		j:        cfg.EMCCLookupDelay,
		payload:  sim.NS(1),
	}
}

// decodeLatency is the counter-decode step the timing simulator charges
// under design d: the counter organisation's own (3 ns for Morphable),
// none for the counter-free designs.
func decodeLatency(d config.CounterDesign) sim.Time {
	if !d.HasCounters() {
		return 0
	}
	return ctr.New(d).DecodeLatency()
}

// TimelineModel exposes the analytic secure-memory-access timeline
// endpoints (the response times the Fig 10/13 timelines end at) as
// functions of a configuration. internal/check sweeps configurations
// through it to assert metamorphic properties — e.g. EMCC never responds
// later than the baseline on counter-hit timelines.
type TimelineModel struct{ l latencies }

// NewTimelineModel derives the model from cfg.
func NewTimelineModel(cfg *config.Config) TimelineModel {
	return TimelineModel{l: latenciesFor(cfg)}
}

// Slack is the single xor/compute step (1 ns) by which EMCC's extra final
// verify may trail the baseline when the DRAM access dominates both
// systems and neither counter path matters.
func (m TimelineModel) Slack() sim.Time { return m.l.xor }

// CounterHitLLC reports the baseline and EMCC response times for an L2
// data miss whose counter hits in the LLC (the Fig 13 regime; rowHit
// selects the DRAM row state). Times are measured from the L2 miss.
func (m TimelineModel) CounterHitLLC(rowHit bool) (baseline, emcc sim.Time) {
	l := m.l
	toMC := l.oneWay + l.llcTag + l.oneWay
	dramAccess := l.rowMiss
	if rowHit {
		dramAccess = l.rowHit
	}
	dd := toMC + dramAccess
	cBase := toMC + l.ctrCache + 2*l.oneWay + l.llcTag + l.llcData + l.payload + l.decode + l.aes
	baseline = maxT(cBase, dd) + 2*l.oneWay + l.xor
	cipher := dd + 2*l.oneWay + l.xor
	cEm := l.j + 2*l.oneWay + l.llcTag + l.llcData + l.payload + l.decode + l.aes
	emcc = maxT(cEm, cipher) + l.xor
	return baseline, emcc
}

// CounterMissLLC reports the baseline and EMCC response times for an L2
// data miss whose counter misses everywhere on chip (the Fig 10 regime;
// DRAM row miss). Times are measured from the L2 miss.
func (m TimelineModel) CounterMissLLC() (baseline, emcc sim.Time) {
	l := m.l
	toMC := l.oneWay + l.llcTag + l.oneWay
	back := 2*l.oneWay + l.xor
	dd := toMC + l.rowMiss
	cBase := toMC + l.ctrCache + 2*l.oneWay + l.llcTag + l.rowMiss + l.decode + l.aes
	baseline = maxT(cBase, dd) + back
	cEm := l.j + l.oneWay + l.llcTag + l.oneWay + l.ctrCache + l.rowMiss + l.decode + l.aes
	emcc = maxT(cEm, dd) + back
	return baseline, emcc
}

// Fig5: Secure Memory Access Latency under counter miss in all caches, with
// and without caching counters in LLC. Clock starts when the MC receives
// the data request.
func (h *Harness) Fig5() *Table {
	l := defaultLatencies()
	t := &Table{
		ID:     "fig5",
		Title:  "Timeline: counter miss in caches (from MC receiving request; row miss)",
		Header: []string{"system", "segment", "start-ns", "end-ns"},
		Notes:  []string{"paper: caching counters in LLC adds ~19 ns Direct LLC Latency"},
	}
	directLLC := 2*l.oneWay + l.llcTag + l.llcData

	without := &timeline{label: "w/o-ctr-in-llc"}
	without.add("data: DRAM (row miss)", 0, l.rowMiss)
	c := without.add("ctr: MC counter cache (miss)", 0, l.ctrCache)
	c = without.add("ctr: DRAM (row miss)", c, l.rowMiss)
	c = without.add("ctr: decode+AES", c, l.decode+l.aes)
	without.add("xor+verify", maxT(c, l.rowMiss), l.xor)
	without.rows(t)

	with := &timeline{label: "w/-ctr-in-llc"}
	with.add("data: DRAM (row miss)", 0, l.rowMiss)
	c = with.add("ctr: MC counter cache (miss)", 0, l.ctrCache)
	c = with.add("ctr: LLC access (miss)", c, directLLC)
	c = with.add("ctr: DRAM (row miss)", c, l.rowMiss)
	c = with.add("ctr: decode+AES", c, l.decode+l.aes)
	with.add("xor+verify", maxT(c, l.rowMiss), l.xor)
	with.rows(t)

	overhead := (with.done() - without.done()).Nanoseconds()
	t.Notes = append(t.Notes, fmt.Sprintf("overhead of caching counters in LLC: %.1f ns (paper: 19 ns)", overhead))
	t.claim("llc-overhead", printed(overhead))
	return t
}

// Fig8: counter hit — in MC's cache vs in LLC.
func (h *Harness) Fig8() *Table {
	l := defaultLatencies()
	t := &Table{
		ID:     "fig8",
		Title:  "Timeline: counter hit (from MC receiving request; row miss)",
		Header: []string{"system", "segment", "start-ns", "end-ns"},
		Notes:  []string{"paper: counter hit in LLC adds ~8 ns vs hit in MC's cache"},
	}
	directLLC := 2*l.oneWay + l.llcTag + l.llcData + l.payload

	mcHit := &timeline{label: "ctr-hit-in-mc"}
	mcHit.add("data: DRAM (row miss)", 0, l.rowMiss)
	c := mcHit.add("ctr: MC counter cache (hit)", 0, l.ctrCache)
	c = mcHit.add("ctr: decode+AES", c, l.decode+l.aes)
	mcHit.add("xor+verify", maxT(c, l.rowMiss), l.xor)
	mcHit.rows(t)

	llcHit := &timeline{label: "ctr-hit-in-llc"}
	llcHit.add("data: DRAM (row miss)", 0, l.rowMiss)
	c = llcHit.add("ctr: MC counter cache (miss)", 0, l.ctrCache)
	c = llcHit.add("ctr: LLC access (hit)", c, directLLC)
	c = llcHit.add("ctr: decode+AES", c, l.decode+l.aes)
	llcHit.add("xor+verify", maxT(c, l.rowMiss), l.xor)
	llcHit.rows(t)

	overhead := (llcHit.done() - mcHit.done()).Nanoseconds()
	t.Notes = append(t.Notes, fmt.Sprintf("overhead of counter hit in LLC: %.1f ns (paper: 8 ns)", overhead))
	t.claim("llc-hit-overhead", printed(overhead))
	return t
}

// Fig10: EMCC vs baseline under counter miss in LLC (row miss), end to end
// from the L2 miss.
func (h *Harness) Fig10() *Table {
	l := defaultLatencies()
	t := &Table{
		ID:     "fig10",
		Title:  "Timeline: EMCC vs baseline, counter miss in LLC (from L2 miss; row miss)",
		Header: []string{"system", "segment", "start-ns", "end-ns"},
	}
	toMC := l.oneWay + l.llcTag + l.oneWay // L2 -> slice -> (tag miss) -> MC
	back := 2*l.oneWay + l.xor             // MC -> slice -> L2

	base := &timeline{label: "baseline"}
	d := base.add("data: L2->LLC->MC", 0, toMC)
	dd := base.add("data: DRAM (row miss)", d, l.rowMiss)
	c := base.add("ctr: MC counter cache (miss)", d, l.ctrCache)
	c = base.add("ctr: LLC access (miss)", c, 2*l.oneWay+l.llcTag)
	c = base.add("ctr: DRAM (row miss)", c, l.rowMiss)
	c = base.add("ctr: decode+AES", c, l.decode+l.aes)
	base.add("respond to L2", maxT(c, dd), back)
	base.rows(t)

	em := &timeline{label: "emcc"}
	d = em.add("data: L2->LLC->MC", 0, toMC)
	dd = em.add("data: DRAM (row miss)", d, l.rowMiss)
	c = em.add("ctr: J + L2->LLC (miss) -> MC", 0, l.j+l.oneWay+l.llcTag+l.oneWay)
	c = em.add("ctr: MC counter cache (miss)", c, l.ctrCache)
	c = em.add("ctr: DRAM (row miss)", c, l.rowMiss)
	c = em.add("ctr: decode+AES", c, l.decode+l.aes)
	em.add("respond to L2 (tagged verified)", maxT(c, dd), back)
	em.rows(t)

	earlier := (base.done() - em.done()).Nanoseconds()
	t.Notes = append(t.Notes, fmt.Sprintf("EMCC responds %.1f ns earlier (paper: 16 ns)", earlier))
	t.claim("emcc-earlier", printed(earlier))
	return t
}

// Fig13: EMCC vs baseline under counter hit in LLC (row hit).
func (h *Harness) Fig13() *Table {
	l := defaultLatencies()
	t := &Table{
		ID:     "fig13",
		Title:  "Timeline: EMCC vs baseline, counter hit in LLC (from L2 miss; row hit)",
		Header: []string{"system", "segment", "start-ns", "end-ns"},
	}
	toMC := l.oneWay + l.llcTag + l.oneWay

	base := &timeline{label: "baseline"}
	d := base.add("data: L2->LLC->MC", 0, toMC)
	dd := base.add("data: DRAM (row hit)", d, l.rowHit)
	c := base.add("ctr: MC counter cache (miss)", d, l.ctrCache)
	c = base.add("ctr: LLC access (hit, 'L'+'M')", c, 2*l.oneWay+l.llcTag+l.llcData+l.payload)
	c = base.add("ctr: decode+AES", c, l.decode+l.aes)
	base.add("respond to L2", maxT(c, dd), 2*l.oneWay+l.xor)
	base.rows(t)

	em := &timeline{label: "emcc"}
	d = em.add("data: L2->LLC->MC", 0, toMC)
	dd = em.add("data: DRAM (row hit)", d, l.rowHit)
	cipher := em.add("data: MC->LLC->L2 (cipher + MAC^dot)", dd, 2*l.oneWay+l.xor)
	c = em.add("ctr: J + L2->LLC (hit) -> L2", 0, l.j+2*l.oneWay+l.llcTag+l.llcData+l.payload)
	c = em.add("ctr: decode+AES at L2", c, l.decode+l.aes)
	em.add("finish at L2 (xor+verify)", maxT(c, cipher), l.xor)
	em.rows(t)

	earlier := (base.done() - em.done()).Nanoseconds()
	t.Notes = append(t.Notes, fmt.Sprintf("EMCC responds %.1f ns earlier (AES overlaps the data's NoC travel)", earlier))
	t.claim("emcc-earlier", printed(earlier))
	return t
}

// Fig14: as Fig13 but with XPT LLC-miss prediction and a DRAM row miss.
func (h *Harness) Fig14() *Table {
	l := defaultLatencies()
	t := &Table{
		ID:     "fig14",
		Title:  "Timeline: EMCC vs baseline with XPT prediction (row miss, counter hit in LLC)",
		Header: []string{"system", "segment", "start-ns", "end-ns"},
	}
	confirm := l.oneWay + l.llcTag + l.oneWay // when the real miss reaches MC

	base := &timeline{label: "baseline+xpt"}
	d := base.add("data: XPT L2->MC", 0, l.oneWay)
	dd := base.add("data: DRAM (row miss)", d, l.rowMiss)
	c := base.add("ctr: wait confirmed miss", 0, confirm)
	c = base.add("ctr: MC counter cache (miss)", c, l.ctrCache)
	c = base.add("ctr: LLC access (hit)", c, 2*l.oneWay+l.llcTag+l.llcData+l.payload)
	c = base.add("ctr: decode+AES", c, l.decode+l.aes)
	base.add("respond to L2", maxT(c, dd), 2*l.oneWay+l.xor)
	base.rows(t)

	em := &timeline{label: "emcc+xpt"}
	d = em.add("data: XPT L2->MC", 0, l.oneWay)
	dd = em.add("data: DRAM (row miss)", d, l.rowMiss)
	cipher := em.add("data: MC->LLC->L2 (cipher + MAC^dot)", dd, 2*l.oneWay+l.xor)
	c = em.add("ctr: J + L2->LLC (hit) -> L2", 0, l.j+2*l.oneWay+l.llcTag+l.llcData+l.payload)
	c = em.add("ctr: decode+AES at L2", c, l.decode+l.aes)
	em.add("finish at L2 (xor+verify)", maxT(c, cipher), l.xor)
	em.rows(t)

	earlier := (base.done() - em.done()).Nanoseconds()
	t.Notes = append(t.Notes, fmt.Sprintf("EMCC responds %.1f ns earlier (paper: 22 ns)", earlier))
	t.claim("emcc-earlier", printed(earlier))
	return t
}

// Table1 prints the simulated microarchitecture parameters.
func (h *Harness) Table1() *Table {
	cfg := config.Default()
	t := &Table{
		ID:     "table1",
		Title:  "Primary microarchitecture parameters (Table I)",
		Header: []string{"parameter", "value"},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	add("CPU", fmt.Sprintf("X86-like, %d cores, %.1f GHz, %d-wide OoO, %d-entry ROB",
		cfg.Cores, cfg.CoreClockGHz, cfg.IssueWidth, cfg.ROBEntries))
	add("L1 cache", fmt.Sprintf("%d KB, %d-way, %.0f ns", cfg.L1Bytes>>10, cfg.L1Ways, cfg.L1Latency.Nanoseconds()))
	add("L2 cache", fmt.Sprintf("%d MB, %d-way, %.0f ns", cfg.L2Bytes>>20, cfg.L2Ways, cfg.L2Latency.Nanoseconds()))
	add("L3 cache", fmt.Sprintf("%d MB, %d-way, tag %.0f ns + data %.0f ns + NoC", cfg.L3Bytes>>20, cfg.L3Ways,
		cfg.L3TagLatency.Nanoseconds(), cfg.L3DataLatency.Nanoseconds()))
	add("Counter cache in MC", fmt.Sprintf("%d KB, %d-way, %.0f ns", cfg.CtrCacheBytes>>10, cfg.CtrCacheWays, cfg.CtrCacheLatency.Nanoseconds()))
	add("Morphable decode", fmt.Sprintf("%.0f ns", decodeLatency(config.CtrMorphable).Nanoseconds()))
	add("AES-128 latency", fmt.Sprintf("%.0f ns", cfg.AESLatency.Nanoseconds()))
	add("AES peak bandwidth", fmt.Sprintf("%.1fG ops/s", cfg.AESPeakOpsPerSec/1e9))
	add("NoC", fmt.Sprintf("%dx%d mesh, %.1f ns/hop + %.1f ns fixed", cfg.MeshCols, cfg.MeshRows,
		cfg.NoCHopLatency.Nanoseconds(), cfg.NoCBaseOneWay.Nanoseconds()))
	// Table I's capacity; the simulators size memory by the workload's
	// footprint, so no config field holds it.
	add("Memory", fmt.Sprintf("128 GB DDR4, %d channel(s), %d ranks x %d banks",
		cfg.Channels, cfg.Ranks, cfg.BanksPerRank))
	add("tCL/tRCD/tRP", fmt.Sprintf("%.2f ns each", cfg.TCL.Nanoseconds()))
	add("tRFC", fmt.Sprintf("%.0f ns", cfg.TRFC.Nanoseconds()))
	add("Row buffer policy", fmt.Sprintf("open page, %.0f ns timeout", cfg.RowTimeout.Nanoseconds()))
	add("Read/Write queues", fmt.Sprintf("%d entries each", cfg.ReadQueueCap))
	add("Scheduling", fmt.Sprintf("FR-FCFS capped at %d row hits", cfg.FRFCFSCap))
	add("Mapping", "XOR-based (Skylake-like); channel bits 8..")
	return t
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
