// Package fsim is the functional cache-model simulator — the equivalent of
// the paper's Pintool methodology (Sec. III): it replays reference streams
// through the L1/L2/LLC hierarchy, the MC's counter cache and the counter
// organisation, counting hits, misses, DRAM traffic, overflow traffic and
// the EMCC-specific events. No timing is modelled; this is what produces
// Figs 2, 6, 7, 11, 12, 23 and 24.
package fsim

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/emcc"
	"repro/internal/inv"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options selects the fsim configuration beyond config.Config.
type Options struct {
	Benchmark string
	Cores     int
	Seed      uint64
	Refs      int64 // memory references to replay (total across cores)
	// Warmup references are replayed before Refs with statistics
	// discarded afterwards — the equivalent of the paper's cache- and
	// counter-warming phases (Sec. V).
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

// Sim is one functional simulation instance.
type Sim struct {
	cfg  *config.Config
	opt  Options
	st   *stats.Set
	l1   []*cache.Cache
	l2   []*cache.Cache
	mesh *noc.Mesh
	llc  []*cache.Cache // per-slice shards, mesh.SliceIndexOf geometry
	home *mc.Home
	pol  emcc.Policy
	gens []workload.Generator

	// Cached stats cells for the per-reference and per-miss counters (see
	// bindHot); rarer events (overflow, invalidation, direct-cipher ops)
	// count through st.Inc.
	cDataRead, cDataWrite, cL2DataMiss     *int64
	cLLCDataAccess, cLLCDataMiss           *int64
	cDRAMDataRead, cDRAMDataWrite          *int64
	cDRAMCtrRead, cDRAMCtrWrite            *int64
	cCtrMCHit                              *int64
	cCtrLLCLookup, cCtrLLCHit, cCtrLLCMiss *int64
	cL2CtrHit, cL2CtrMiss, cSpecFetch      *int64
	cCtrInserted, cUseless                 *int64
}

// New builds a functional simulation. cfg.Counter selects the secure-memory
// design; cfg.CountersInLLC / cfg.EMCC select the architecture.
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
		st:   stats.NewSet(),
		mesh: noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay),
		gens: gens,
	}
	// The LLC splits into per-tile slices exactly like tsim's (same
	// SliceIndexOf hash, same SplitSets share), so the functional and
	// timing models warm identical cache contents.
	totalSets := uint64(cfg.L3Bytes/addr.BlockBytes) / uint64(cfg.L3Ways)
	split := cache.SplitSets(totalSets, s.mesh.CoreTiles())
	for j, sets := range split {
		g := cache.NewSets(fmt.Sprintf("llc.%d", j), sets, cfg.L3Ways)
		g.SetRecorder(opt.Recorder)
		s.llc = append(s.llc, g)
	}
	for c := 0; c < opt.Cores; c++ {
		l1 := cache.New(fmt.Sprintf("l1.%d", c), cfg.L1Bytes, cfg.L1Ways)
		l1.SetRecorder(opt.Recorder)
		s.l1 = append(s.l1, l1)
		l2 := cache.New(fmt.Sprintf("l2.%d", c), cfg.L2Bytes, cfg.L2Ways)
		l2.SetRecorder(opt.Recorder)
		if cfg.EMCC {
			l2.SetCounterCap(cfg.EMCCL2CounterBytes)
		}
		s.l2 = append(s.l2, l2)
	}
	// Only counter-backed designs build the metadata home; the counter-free
	// direct-cipher designs (CtrBipBip, CtrInSRAM) have no counters, tree or
	// metadata cache to model.
	if cfg.Counter.HasCounters() {
		s.home = mc.NewHome(cfg, dataBytes)
		s.home.SetRecorder(opt.Recorder)
	}
	s.pol = emcc.Policy{L2CounterCap: cfg.EMCCL2CounterBytes}
	s.bindHot()
	return s, nil
}

// bindHot binds the stats cells the per-reference path bumps directly,
// once at construction: the cells survive Run's warm-up Reset. Cells that
// stay at zero are invisible to snapshots, so binding them eagerly changes
// no output.
func (s *Sim) bindHot() {
	st := s.st
	s.cDataRead = st.CounterRef(stats.FsimDataRead)
	s.cDataWrite = st.CounterRef(stats.FsimDataWrite)
	s.cL2DataMiss = st.CounterRef(stats.FsimL2DataMiss)
	s.cLLCDataAccess = st.CounterRef(stats.FsimLLCDataAccess)
	s.cLLCDataMiss = st.CounterRef(stats.FsimLLCDataMiss)
	s.cDRAMDataRead = st.CounterRef(stats.FsimDRAMDataRead)
	s.cDRAMDataWrite = st.CounterRef(stats.FsimDRAMDataWrite)
	s.cDRAMCtrRead = st.CounterRef(stats.FsimDRAMCtrRead)
	s.cDRAMCtrWrite = st.CounterRef(stats.FsimDRAMCtrWrite)
	s.cCtrMCHit = st.CounterRef(stats.FsimCtrMCHit)
	s.cCtrLLCLookup = st.CounterRef(stats.FsimCtrLLCLookup)
	s.cCtrLLCHit = st.CounterRef(stats.FsimCtrLLCHit)
	s.cCtrLLCMiss = st.CounterRef(stats.FsimCtrLLCMiss)
	s.cL2CtrHit = st.CounterRef(stats.EmccL2CtrHit)
	s.cL2CtrMiss = st.CounterRef(stats.EmccL2CtrMiss)
	s.cSpecFetch = st.CounterRef(stats.EmccSpecFetch)
	s.cCtrInserted = st.CounterRef(stats.EmccCtrInserted)
	s.cUseless = st.CounterRef(stats.EmccUseless)
}

// Stats exposes the collected metrics.
func (s *Sim) Stats() *stats.Set { return s.st }

// Space exposes the address map (nil for non-secure runs).
func (s *Sim) Space() *addr.Space {
	if s.home == nil {
		return nil
	}
	return s.home.Space
}

// Run replays the warmup (discarding statistics) and then opt.Refs
// references, round-robin across cores.
func (s *Sim) Run() {
	s.replay(s.opt.Warmup)
	s.st.Reset()
	s.replay(s.opt.Refs)
}

func (s *Sim) replay(refs int64) {
	perCore := refs / int64(len(s.gens))
	for i := int64(0); i < perCore; i++ {
		for c := range s.gens {
			s.access(c, s.gens[c].Next())
		}
	}
}

// access replays one reference through the hierarchy.
func (s *Sim) access(core int, a workload.Access) {
	block := addr.BlockOf(a.Addr)
	if a.Write {
		*s.cDataWrite++
	} else {
		*s.cDataRead++
	}

	// L1.
	if s.l1[core].Lookup(block) {
		if a.Write {
			s.l1[core].MarkDirty(block)
		}
		return
	}
	// L2.
	if s.l2[core].Lookup(block) {
		s.fillL1(core, block, a.Write)
		return
	}
	// L2 data miss: this is where EMCC engages (Sec. IV-C).
	*s.cL2DataMiss++
	if s.cfg.EMCC {
		s.emccCounterProbe(core, block)
	}

	// LLC.
	*s.cLLCDataAccess++
	if s.llcOf(block).Lookup(block) {
		// Non-inclusive victim-cache style: promote to L2.
		s.fillL2(core, block, false)
		s.fillL1(core, block, a.Write)
		return
	}
	*s.cLLCDataMiss++

	// DRAM data read, with its counter access (counter-backed designs) or
	// a direct-cipher decryption (counter-free designs).
	*s.cDRAMDataRead++
	if s.home != nil {
		s.counterForDataRead(core, block)
	} else {
		s.directDecrypt()
	}
	s.fillL2(core, block, false)
	s.fillL1(core, block, a.Write)
}

// fillL1 inserts into L1, spilling dirty victims into L2.
func (s *Sim) fillL1(core int, block uint64, dirty bool) {
	v, ok := s.l1[core].Insert(block, dirty, addr.KindData)
	if ok && v.Dirty {
		if !s.l2[core].MarkDirty(v.Block) {
			s.fillL2(core, v.Block, true)
		}
	}
}

// fillL2 inserts into L2 (non-inclusive first-level fill from DRAM),
// spilling victims into the LLC.
func (s *Sim) fillL2(core int, block uint64, dirty bool) {
	v, ok := s.l2[core].Insert(block, dirty, addr.KindData)
	if !ok {
		return
	}
	if v.Kind == addr.KindCounter {
		// An EMCC-cached counter block leaves L2; if it never served
		// an LLC data miss its speculative fetch was useless (Fig 11).
		if !v.WasUsed {
			*s.cUseless++
		}
		return // counters are clean in L2; LLC already has its copy path
	}
	s.insertLLC(v.Block, v.Dirty, v.Kind)
}

// llcOf maps a block to its home LLC slice.
func (s *Sim) llcOf(block uint64) *cache.Cache { return s.llc[s.mesh.SliceIndexOf(block)] }

// insertLLC inserts into the LLC, handling writebacks of dirty victims.
func (s *Sim) insertLLC(block uint64, dirty bool, kind addr.Kind) {
	v, ok := s.llcOf(block).Insert(block, dirty, kind)
	if !ok || !v.Dirty {
		return
	}
	switch v.Kind {
	case addr.KindData:
		s.writebackData(v.Block)
	default:
		s.writebackMeta(v.Block)
	}
}
