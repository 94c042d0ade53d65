// Package tsim is the timing simulator — the equivalent of the paper's
// gem5 methodology (Sec. V): an event-driven model of 4 OoO cores, a
// non-inclusive L1/L2/LLC hierarchy on a 6x5 mesh NoC, a secure memory
// controller with counter cache, AES pools, integrity-tree walks and
// split-counter overflow handling, and a DDR4 timing model. It produces the
// performance figures (15-22) and the latency timelines.
//
// Deliberate simplifications (documented in DESIGN.md): a single logical
// metadata authority shared by both MC tiles; idealised XPT (the LLC-miss
// prediction is an oracle, so mispredictions cost no DRAM bandwidth); MESI
// coherence between cores is not modelled beyond EMCC's counter
// invalidations (workloads are multi-programmed or share read-mostly data).
package tsim

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/emcc"
	"repro/internal/inv"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options selects workload and run length.
type Options struct {
	Benchmark string
	Cores     int
	Seed      uint64
	// Refs is the total number of memory references replayed across all
	// cores (the run ends when every core consumed its share and the
	// machine drained).
	Refs int64
	// Warmup references are replayed functionally (no timing) before the
	// detailed phase, warming caches and counter values (Sec. V).
	Warmup int64
	Scale  workload.Scale
	// Generators, when non-nil, replaces the synthetic benchmark with
	// caller-provided streams (e.g. a recorded trace, internal/trace);
	// DataBytes must then bound every address they emit.
	Generators []workload.Generator
	DataBytes  int64
	// Recorder, when non-nil, receives this run's invariant violations;
	// nil runs with checking off. Concurrent runs in one process each keep
	// their own ledger.
	Recorder *inv.Recorder
}

// Result summarises a timing run.
type Result struct {
	// SimulatedTime is when the last core retired its last instruction.
	SimulatedTime sim.Time
	// Instructions counts all retired instructions (memory + non-memory).
	Instructions int64
	// IPC is Instructions per core cycle, summed over cores.
	IPC float64
	// L2MissLatencyNS is the mean latency of L2 data read misses
	// (Fig 17).
	L2MissLatencyNS float64
	// BusyFraction is the DRAM bus utilisation split by traffic kind
	// (Fig 15).
	BusyFraction map[dram.TrafficKind]float64
	// DecryptAtL2Frac is the fraction of DRAM data reads decrypted and
	// verified at L2 (Fig 19; zero for non-EMCC systems).
	DecryptAtL2Frac float64
}

// Sim is one timing-simulation instance.
type Sim struct {
	cfg     *config.Config
	opt     Options
	eng     *sim.Engine
	boxFree *u64box // freelist for packed seam payloads
	st      *stats.Set
	mesh    *noc.Mesh
	dram    *dram.DRAM
	mc      *mcCtl
	slices  []*llcSlice
	l2s     []*l2Ctl
	cpus    []*core
	pol     emcc.Policy
	ivr     *inv.Recorder // this run's invariant recorder (nil = checking off)
	trc     *obs.Tracer   // nil = tracing disabled (the common case)

	rec       *metrics.Recorder // nil = flight recording disabled
	recPeriod sim.Time

	warming bool // functional warmup in progress: no timing, no traffic
}

// New builds a timing simulation.
func New(cfg *config.Config, opt Options) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Cores == 0 {
		opt.Cores = cfg.Cores
	}
	if opt.Scale == (workload.Scale{}) {
		opt.Scale = workload.DefaultScale()
	}
	gens := opt.Generators
	dataBytes := opt.DataBytes
	if gens == nil {
		var err error
		gens, err = workload.NewSet(opt.Benchmark, opt.Cores, opt.Seed, opt.Scale)
		if err != nil {
			return nil, err
		}
		dataBytes, err = workload.SpaceBytes(opt.Benchmark, opt.Cores, opt.Scale)
		if err != nil {
			return nil, err
		}
	} else {
		if len(gens) != opt.Cores {
			return nil, fmt.Errorf("%s: %d generators for %d cores", "sim", len(gens), opt.Cores)
		}
		if dataBytes <= 0 {
			return nil, fmt.Errorf("sim: DataBytes required with custom generators")
		}
	}

	s := &Sim{
		cfg:  cfg,
		opt:  opt,
		eng:  sim.New(),
		st:   stats.NewSet(),
		mesh: noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay),
		ivr:  opt.Recorder,
	}
	// Bind the run's recorder to the engine before any component grabs it:
	// every eng.Recorder() call below must see this run's ledger.
	s.eng.SetRecorder(s.ivr)
	s.pol = emcc.NewPolicy(cfg, s.mesh, s.ivr)
	s.dram = dram.New(s.eng, s.st, cfg)
	s.buildSlices()
	s.mc = newMCCtl(s, dataBytes)
	perCore := opt.Refs / int64(opt.Cores)
	for c := 0; c < opt.Cores; c++ {
		l2 := newL2Ctl(s, c)
		s.l2s = append(s.l2s, l2)
		s.cpus = append(s.cpus, newCore(s, c, gens[c], perCore))
	}
	s.wirePorts()
	s.bindHot()
	return s, nil
}

// bindHot (re-)binds the cached stats cells the hot paths bump directly.
// Called at construction (warmup's functional helpers share some keys) and
// again after warm's stats Reset, which invalidates every cell.
func (s *Sim) bindHot() {
	for _, c := range s.cpus {
		c.bindHot()
	}
	for _, l2 := range s.l2s {
		l2.bindHot()
	}
	for _, g := range s.slices {
		g.bindHot()
	}
	s.mc.bindHot()
}

// Stats exposes collected metrics.
func (s *Sim) Stats() *stats.Set { return s.st }

// SetTracer attaches a per-request tracer (internal/obs). Call before Run;
// a nil tracer (the default) keeps every instrumentation site on its
// single-branch fast path. Warmup references are never traced.
func (s *Sim) SetTracer(t *obs.Tracer) {
	s.trc = t
	for _, l2 := range s.l2s {
		if l2.monitor != nil {
			id := l2.id
			l2.monitor.OnTransition = func(enabled bool) {
				name := "emcc-off"
				if enabled {
					name = "emcc-on"
				}
				s.trc.Instant(name, id, s.eng.Now())
			}
		}
	}
}

// SetFlightRecorder attaches an interval flight recorder that samples the
// run's stats set every period of simulated time. Call before Run. The
// first interval starts at the measurement boundary (warmup traffic is
// functional and records nothing), so the recorded series shows cache
// warm-up and phase changes from the first measured event on. The series
// is a pure function of the scenario: byte-identical across reruns and
// across concurrent runs at any parallelism.
func (s *Sim) SetFlightRecorder(rec *metrics.Recorder, period sim.Time) {
	s.rec = rec
	s.recPeriod = period
}

// Engine exposes the event engine, for callers that read its counters
// (such as the executed-event count) after a run.
func (s *Sim) Engine() *sim.Engine { return s.eng }

// Run warms the machine, executes the workload to completion and
// summarises.
func (s *Sim) Run() Result {
	s.warm(s.opt.Warmup)
	// warm resets the stats set at the measurement boundary, which strands
	// every cached cell; re-bind before any timed event fires.
	s.bindHot()
	for _, c := range s.cpus {
		c.start()
	}
	if period := s.trc.SamplePeriod(); period > 0 {
		s.eng.Every(period, s.samplePoint)
	}
	if s.rec != nil && s.recPeriod > 0 {
		// Bound after the warm Reset like every other cell. The tick
		// counters land in the same stats set the recorder samples, so
		// each interval carries its own flight/intervals delta — harmless,
		// deterministic, and it makes recorder liveness visible in dumps.
		intervals := s.st.CounterRef(stats.FlightIntervals)
		dropped := s.st.CounterRef(stats.FlightDropped)
		rec := s.rec
		s.eng.Every(s.recPeriod, func(now sim.Time) {
			*intervals++
			if rec.Record(int64(now)) {
				*dropped++
			}
		})
	}
	// Hard ceiling guards against modelling bugs hanging the run.
	const maxSteps = 2_000_000_000
	for s.eng.Pending() > 0 {
		if s.eng.Steps() > maxSteps {
			panic(fmt.Sprintf("tsim: exceeded %d events — likely a stall bug", int64(maxSteps)))
		}
		s.eng.RunFor(sim.Millisecond)
	}

	var res Result
	var lastRetire sim.Time
	for _, c := range s.cpus {
		if c.refsLeft > 0 || c.outstanding > 0 || c.stashed {
			panic(fmt.Sprintf("tsim: core %d stuck at drain (refsLeft=%d outstanding=%d stashed=%v) — lost completion",
				c.id, c.refsLeft, c.outstanding, c.stashed))
		}
		res.Instructions += c.instrs
		if c.lastRetire > lastRetire {
			lastRetire = c.lastRetire
		}
	}
	res.SimulatedTime = lastRetire
	if res.SimulatedTime > 0 {
		cycles := float64(res.SimulatedTime) / float64(s.cfg.CoreCycle())
		res.IPC = float64(res.Instructions) / cycles
	}
	res.L2MissLatencyNS = s.st.Accum(stats.TsimL2ReadMissLatencyPS).Mean() / 1000
	res.BusyFraction = s.dram.BusyFraction(0, res.SimulatedTime)
	atL2 := s.st.Counter(stats.EmccDecryptAtL2)
	atMC := s.st.Counter(stats.EmccDecryptAtMC)
	if atL2+atMC > 0 {
		res.DecryptAtL2Frac = float64(atL2) / float64(atL2+atMC)
	}
	return res
}

// samplePoint records one time-series sample of the machine's occupancy
// gauges: outstanding misses (MSHR occupancy), DRAM queue depths, and
// AES-pool utilisation at the MC and (under EMCC) the L2 pools.
func (s *Sim) samplePoint(now sim.Time) {
	outstanding := 0
	for _, c := range s.cpus {
		outstanding += c.outstanding
	}
	s.trc.Sample("mshr-outstanding", now, float64(outstanding))
	reads, writes := s.dram.QueueDepths()
	s.trc.Sample("dram-read-queue", now, float64(reads))
	s.trc.Sample("dram-write-queue", now, float64(writes))
	if s.mc.aes != nil {
		s.trc.Sample("aes-mc-util", now, s.mc.aes.Utilisation())
	}
	var l2Util float64
	var l2Pools int
	for _, l2 := range s.l2s {
		if l2.aes != nil {
			l2Util += l2.aes.Utilisation()
			l2Pools++
		}
	}
	if l2Pools > 0 {
		s.trc.Sample("aes-l2-util", now, l2Util/float64(l2Pools))
	}
}

// at schedules fn at the later of t and now (events cannot be scheduled in
// the past; component handoffs routinely compute times at or before now).
func (s *Sim) at(t sim.Time, fn func()) {
	if now := s.eng.Now(); t < now {
		t = now
	}
	s.eng.At(t, fn)
}

// atCall is the allocation-free sibling of at for prebound callbacks.
func (s *Sim) atCall(t sim.Time, fn func(any), arg any) {
	if now := s.eng.Now(); t < now {
		t = now
	}
	s.eng.AtCall(t, fn, arg)
}

// schedReq schedules a request-carrying event, taking the hold that the
// callback's trailing release balances (see readReq).
func (s *Sim) schedReq(t sim.Time, fn func(any), req *readReq) {
	req.holdReq()
	s.atCall(t, fn, req)
}

// secure reports whether any secure-memory design is active (counter-backed
// or counter-free direct cipher).
func (s *Sim) secure() bool { return s.cfg.Counter != config.CtrNone }

// counters reports whether the active design maintains counter metadata —
// the machinery (counter caches, tree walks, overflow engine, warm counter
// placement) the counter-free designs must never touch.
func (s *Sim) counters() bool { return s.cfg.Counter.HasCounters() }

// Convenience latencies.
func (s *Sim) oneway(a, b noc.NodeID) sim.Time { return s.mesh.OneWay(a, b) }
