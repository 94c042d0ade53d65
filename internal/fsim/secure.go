package fsim

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/stats"
)

// This file is the secure-memory side of the functional simulator: counter
// placement/classification, the EMCC L2 counter path, metadata movement
// between the MC's cache, the LLC and DRAM, and writeback counter updates
// with overflow and invalidation.

// emccCounterProbe is the Sec. IV-C flow after an L2 data miss: serially
// look up the data's counter in L2; on miss, speculatively fetch it from
// the LLC in parallel with the data access; when it misses in LLC too, the
// MC takes over (fetching, verifying, and tagging the data response) and
// returns the counter block to both LLC and L2 for future misses.
//
// The speculative LLC probe classifies its own hit/miss (the same
// ctr-llc-hit/ctr-llc-miss split tsim's counterAccessFromL2 counts, so the
// differential harness can compare the LLC split under EMCC), and the
// on-chip-miss handoff skips the LLC re-probe — the probe just missed.
func (s *Sim) emccCounterProbe(core int, dataBlock uint64) {
	cb := s.home.CounterBlockOf(dataBlock)
	if s.l2[core].Lookup(cb) {
		*s.cL2CtrHit++
		return
	}
	*s.cL2CtrMiss++
	*s.cSpecFetch++
	*s.cCtrLLCLookup++
	if s.llcOf(cb).Lookup(cb) {
		*s.cCtrLLCHit++
		s.insertCtrIntoL2(core, cb)
		return
	}
	*s.cCtrLLCMiss++
	// Counter missed on-chip: MC resolves it (possibly from its own
	// cache, else DRAM + tree verification) and supplies LLC and L2.
	s.fetchMeta(cb, true)
	s.insertLLC(cb, false, addr.KindCounter)
	s.insertCtrIntoL2(core, cb)
}

// insertCtrIntoL2 caches a counter block in L2 under the 32 KB cap,
// accounting Fig 11's useless-fetch tracking on eviction.
func (s *Sim) insertCtrIntoL2(core int, cb uint64) {
	*s.cCtrInserted++
	v, ok := s.l2[core].Insert(cb, false, addr.KindCounter)
	if !ok {
		return
	}
	if v.Kind == addr.KindCounter {
		if !v.WasUsed {
			*s.cUseless++
		}
		return
	}
	if v.Dirty {
		s.insertLLC(v.Block, true, v.Kind)
	}
}

// counterForDataRead resolves the counter for a data block being read from
// DRAM and classifies where it was found (Figs 6/7).
func (s *Sim) counterForDataRead(core int, dataBlock uint64) {
	cb := s.home.CounterBlockOf(dataBlock)
	if s.cfg.EMCC {
		// The counter was already obtained by the L2-side probe; this
		// data miss in LLC proves that fetch useful (Fig 11).
		s.l2[core].MarkUsed(cb)
		return
	}
	if s.home.LookupMeta(cb) {
		*s.cCtrMCHit++
		return
	}
	if s.cfg.CountersInLLC {
		*s.cCtrLLCLookup++
		if s.llcOf(cb).Lookup(cb) {
			*s.cCtrLLCHit++
			s.moveMetaToMC(cb)
			return
		}
		*s.cCtrLLCMiss++
	}
	// The probe (if any) just missed: go straight to DRAM + verification.
	s.fetchMeta(cb, true)
}

// fetchMeta obtains a metadata block at the MC, wherever it currently is,
// counting the traffic it generates. DRAM-sourced blocks are verified,
// which requires their parent chain on-chip (recursive fetch). skipLLC is
// set when the caller already probed (and missed) the LLC for mb, so the
// probe is neither repeated nor double-counted. Secondary probes here count
// only ctr-llc-lookups: the hit/miss classification metrics keep their
// per-primary-probe semantics (one per DRAM data read in the baseline, one
// per speculative fetch under EMCC), which is what Figs 6/7 and the
// differential rules consume.
func (s *Sim) fetchMeta(mb uint64, skipLLC bool) {
	if s.home.LookupMeta(mb) {
		return
	}
	if s.cfg.CountersInLLC && !skipLLC {
		*s.cCtrLLCLookup++
		if s.llcOf(mb).Lookup(mb) {
			s.moveMetaToMC(mb)
			return
		}
	}
	*s.cDRAMCtrRead++
	if p, ok := s.home.Space.ParentOf(mb); ok {
		s.fetchMeta(p, false)
	}
	s.moveMetaToMC(mb)
}

// moveMetaToMC fills a metadata block into the MC's private cache. Every
// displaced metadata block — clean or dirty — spills into the LLC: that is
// what makes the LLC a second-level counter cache in prior designs
// (Sec. II "Improving Counter Hit Rate").
func (s *Sim) moveMetaToMC(mb uint64) {
	v, ok := s.home.InsertMeta(mb, false)
	if ok {
		s.spillMetaVictim(v.Block, v.Dirty)
	}
}

// spillMetaVictim places an evicted MC metadata block in the LLC (or, when
// counters are not cached in LLC, writes it back if dirty).
func (s *Sim) spillMetaVictim(mb uint64, dirty bool) {
	if s.cfg.CountersInLLC {
		s.insertLLC(mb, dirty, s.home.Space.Kind(mb))
		return
	}
	if dirty {
		s.writebackMeta(mb)
	}
}

// writebackMeta is a metadata block reaching DRAM: one counter write plus
// the write-counter update of the block itself (its parent counter).
func (s *Sim) writebackMeta(mb uint64) {
	*s.cDRAMCtrWrite++
	s.bumpCounter(mb)
}

// directDecrypt accounts one per-block cipher operation for the
// counter-free designs on a DRAM data fill (no counter to resolve, no
// metadata traffic — just the block cipher itself).
func (s *Sim) directDecrypt() {
	switch s.cfg.Counter {
	case config.CtrBipBip:
		s.st.Inc(stats.BipBipDecryptOps)
	case config.CtrInSRAM:
		s.st.Inc(stats.InSRAMDecryptOps)
	}
}

// directEncrypt is directDecrypt's writeback counterpart.
func (s *Sim) directEncrypt() {
	switch s.cfg.Counter {
	case config.CtrBipBip:
		s.st.Inc(stats.BipBipEncryptOps)
	case config.CtrInSRAM:
		s.st.Inc(stats.InSRAMEncryptOps)
	}
}

// writebackData is a dirty data block reaching DRAM: one data write, the
// block's counter update, and — under EMCC — invalidation of the counter
// block's L2 copies (Sec. IV-C, Fig 23).
func (s *Sim) writebackData(db uint64) {
	*s.cDRAMDataWrite++
	if s.home == nil {
		s.directEncrypt()
		return
	}
	s.bumpCounter(db)
	if s.cfg.EMCC {
		s.invalidateL2Counters(s.home.CounterBlockOf(db))
	}
}

// bumpCounter advances the write counter protecting `block`, fetching the
// owning counter block to the MC first and accounting overflow traffic.
func (s *Sim) bumpCounter(block uint64) {
	parent, ok := s.home.Space.ParentOf(block)
	if !ok {
		return // root: on-chip counter only
	}
	s.fetchMeta(parent, false)
	ov := s.home.IncrementCounterOf(block)
	s.home.MarkMetaDirty(parent)
	if !ov.Happened {
		return
	}
	// Rebase re-encryption: each covered block is read and rewritten.
	traffic := int64(2 * ov.ReencryptBlocks)
	if ov.Level == 0 {
		s.st.Add(stats.FsimDRAMOvfL0, traffic)
	} else {
		s.st.Add(stats.FsimDRAMOvfHi, traffic)
	}
	// The rebase changed every counter in the block: EMCC must
	// invalidate stale L2 copies.
	if s.cfg.EMCC {
		s.invalidateL2Counters(parent)
	}
}

// invalidateL2Counters removes a counter block from every L2 after the MC
// updated it, counting Fig 23 invalidations (and Fig 11 uselessness when
// the copy never served an LLC miss).
func (s *Sim) invalidateL2Counters(cb uint64) {
	for _, l2 := range s.l2 {
		if v, ok := l2.Invalidate(cb); ok {
			s.st.Inc(stats.EmccInvalidations)
			if !v.WasUsed {
				*s.cUseless++
			}
		}
	}
}
