package tsim

import (
	"repro/internal/addr"
	"repro/internal/workload"
)

// Functional warmup: before detailed simulation starts, the caches, the
// MC's metadata cache and — crucially — the counter values are warmed by
// replaying references without timing, the equivalent of gem5's atomic-mode
// warmup the paper uses ("warm up the counter values for 25 billion
// instructions", Sec. V). Statistics are reset afterwards.

// warm replays refs references functionally.
func (s *Sim) warm(refs int64) {
	if refs <= 0 {
		return
	}
	s.warming = true
	perCore := refs / int64(len(s.cpus))
	for i := int64(0); i < perCore; i++ {
		for c := range s.cpus {
			s.warmAccess(c, s.cpus[c].gen.Next())
		}
	}
	s.warming = false
	// The measurement boundary.
	s.st.Reset()
}

// warmAccess mirrors the timed read/write path against the same functional
// structures, minus all latency.
func (s *Sim) warmAccess(c int, a workload.Access) {
	block := addr.BlockOf(a.Addr)
	cpu := s.cpus[c]
	l2 := s.l2s[c]
	if cpu.l1.Lookup(block) {
		if a.Write {
			cpu.l1.MarkDirty(block)
		}
		return
	}
	if l2.c.Lookup(block) {
		cpu.fillL1(block, a.Write)
		return
	}
	// L2 miss: EMCC counter-side warm.
	if s.cfg.EMCC && s.secure() {
		s.warmCounterProbe(l2, block)
	}
	if s.sliceFor(block).c.Lookup(block) {
		l2.fill(block, false, 0)
		cpu.fillL1(block, a.Write)
		return
	}
	// DRAM fill; counter placement warms like the baseline path. The
	// counter-free designs have no metadata to place.
	if s.counters() {
		cb := s.mc.home.CounterBlockOf(block)
		if s.cfg.EMCC {
			l2.c.MarkUsed(cb)
		} else {
			s.warmMeta(cb)
		}
	}
	l2.fill(block, false, 0)
	cpu.fillL1(block, a.Write)
}

// warmCounterProbe mirrors l2Ctl.counterProbe functionally.
func (s *Sim) warmCounterProbe(l2 *l2Ctl, dataBlock uint64) {
	cb := s.mc.home.CounterBlockOf(dataBlock)
	if l2.c.Lookup(cb) {
		return
	}
	if !s.sliceFor(cb).c.Lookup(cb) {
		s.warmMeta(cb)
		s.sliceFor(cb).insert(cb, false, addr.KindCounter)
	}
	l2.insertCounter(cb)
}

// warmMeta mirrors mcCtl.fetchMeta functionally.
func (s *Sim) warmMeta(mb uint64) {
	if s.mc.home.Meta.Lookup(mb) {
		return
	}
	if s.cfg.CountersInLLC && s.sliceFor(mb).c.Lookup(mb) {
		s.mc.insertMeta(mb)
		return
	}
	if p, ok := s.mc.home.Space.ParentOf(mb); ok {
		s.warmMeta(p)
	}
	s.mc.insertMeta(mb)
}

// warmBump advances a counter during warmup (writebacks reached DRAM
// functionally): values warm, traffic is not modelled.
func (s *Sim) warmBump(block uint64) {
	parent, ok := s.mc.home.Space.ParentOf(block)
	if !ok {
		return
	}
	s.warmMeta(parent)
	s.mc.home.IncrementCounterOf(block)
	s.mc.home.MarkMetaDirty(parent)
}
