package tsim

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// llcSlice is one LLC slice: a real tag-store shard on its own mesh tile,
// holding its share of the total sets (cache.SplitSets — the same split
// fsim uses, so the functional and timing LLC contents stay comparable).
// Messages to and from the slice travel over keyed seams (see seam.go). A
// miss pays only the tag lookup while a hit pays tag + data, the 'L'
// effect of Fig 13.
type llcSlice struct {
	s    *Sim
	idx  int
	tile noc.NodeID
	c    *cache.Cache

	tagLat     sim.Time
	dataLat    sim.Time
	payloadPen sim.Time // 'M' of Fig 13: transmitting counter payloads

	toCore []port // responses, counter deliveries, miss notes
	toMC   port   // LLC misses, counter misses, victim writebacks, probe replies

	// Prebound handlers for packed-payload messages arriving at this
	// slice (bound once at construction; see the handle* methods).
	insertDataCB func(any)
	insertMetaCB func(any)
	metaProbeCB  func(any)

	// Cached stats cells, bound at construction (see bindHot).
	cDataAccess    *int64
	cDataMiss      *int64
	cCtrLookup     *int64
	cCtrHit        *int64
	cCtrMiss       *int64
	cSpecCtrLookup *int64
	cSpecCtrHit    *int64
	cSpecCtrMiss   *int64
}

// buildSlices constructs every LLC slice, one per core tile of the mesh.
func (s *Sim) buildSlices() {
	n := s.mesh.CoreTiles()
	totalSets := uint64(s.cfg.L3Bytes/addr.BlockBytes) / uint64(s.cfg.L3Ways)
	split := cache.SplitSets(totalSets, n)
	s.slices = make([]*llcSlice, n)
	for j := 0; j < n; j++ {
		g := &llcSlice{
			s:          s,
			idx:        j,
			tile:       s.mesh.CoreTile(j),
			c:          cache.NewSets(fmt.Sprintf("llc.%d", j), split[j], s.cfg.L3Ways),
			tagLat:     s.cfg.L3TagLatency,
			dataLat:    s.cfg.L3DataLatency,
			payloadPen: sim.NS(1),
		}
		g.c.SetRecorder(s.ivr)
		g.insertDataCB = g.handleInsertData
		g.insertMetaCB = g.handleInsertMeta
		g.metaProbeCB = g.handleMetaProbe
		g.bindHot()
		s.slices[j] = g
	}
}

func (g *llcSlice) bindHot() {
	st := g.s.st
	g.cDataAccess = st.CounterRef(stats.TsimLLCDataAccess)
	g.cDataMiss = st.CounterRef(stats.TsimLLCDataMiss)
	g.cCtrLookup = st.CounterRef(stats.TsimCtrLLCLookup)
	g.cCtrHit = st.CounterRef(stats.TsimCtrLLCHit)
	g.cCtrMiss = st.CounterRef(stats.TsimCtrLLCMiss)
	g.cSpecCtrLookup = st.CounterRef(stats.TsimCtrSpecLLCLookup)
	g.cSpecCtrHit = st.CounterRef(stats.TsimCtrSpecLLCHit)
	g.cSpecCtrMiss = st.CounterRef(stats.TsimCtrSpecLLCMiss)
}

// dataAccess serves an L2 data miss arriving at its home slice.
func (g *llcSlice) dataAccess(req *readReq) {
	s := g.s
	t := s.eng.Now()
	*g.cDataAccess++
	if g.c.Lookup(req.block) {
		// On-chip data is already decrypted and verified.
		req.tr.AddSpan(obs.SegLLCProbe, t, t+g.tagLat+g.dataLat)
		arr := t + g.tagLat + g.dataLat + s.oneway(g.tile, req.l2.tile)
		req.tr.AddSpan(obs.SegNoCResp, t+g.tagLat+g.dataLat, arr)
		req.holdReq()
		g.toCore[req.l2.id].send(arr, completePlainLocalCB, req)
		return
	}
	*g.cDataMiss++
	req.tr.MarkLLCMiss()
	req.tr.AddSpan(obs.SegLLCProbe, t, t+g.tagLat)
	if s.cfg.EMCC && s.secure() {
		// Tell the requesting L2 its data access missed here: the miss
		// note marks the L2's counter copy useful (Fig 11) and sets the
		// request's llcMissed bit — state only the owning L2 may touch.
		req.holdReq()
		g.toCore[req.l2.id].send(t+g.tagLat+s.oneway(g.tile, req.l2.tile), llcMissNoteCB, req)
	}
	mcTile := s.mesh.MCTile(s.mesh.MCOf(req.block))
	req.tr.AddSpan(obs.SegNoCToMC, t+g.tagLat, t+g.tagLat+s.oneway(g.tile, mcTile))
	req.holdReq()
	g.toMC.send(t+g.tagLat+s.oneway(g.tile, mcTile), mcDataReadConfCB, req)
}

// counterAccessFromL2 serves EMCC's speculative parallel counter fetch.
// Beyond the aggregate tsim/ctr-llc-* counters (shared with the MC path
// below), the probe keeps its own tsim/ctr-spec-llc-* classification: fsim's
// speculative probe is the only LLC counter access its EMCC model performs,
// so the differential harness compares it against this split, not the
// aggregate.
func (g *llcSlice) counterAccessFromL2(req *readReq, cb uint64) {
	s := g.s
	t := s.eng.Now()
	*g.cCtrLookup++
	*g.cSpecCtrLookup++
	if g.c.Lookup(cb) {
		*g.cCtrHit++
		*g.cSpecCtrHit++
		req.tr.MarkCtr(obs.CtrAtLLC)
		arr := t + g.tagLat + g.dataLat + g.payloadPen + s.oneway(g.tile, req.l2.tile)
		req.holdReq()
		g.toCore[req.l2.id].send(arr, counterArrivedCB, req)
		return
	}
	*g.cCtrMiss++
	*g.cSpecCtrMiss++
	mcTile := s.mesh.MCTile(s.mesh.MCOf(cb))
	req.holdReq()
	g.toMC.send(t+g.tagLat+s.oneway(g.tile, mcTile), counterMissCB, req)
}

// handleMetaProbe serves the baseline MC counter path: the MC, having
// missed its private counter cache, probes the home slice (serially after
// the data miss, Sec. III-B) and the slice replies with a packed
// mb<<1|hit verdict (mcCtl.metaProbeDone).
func (g *llcSlice) handleMetaProbe(a any) {
	s := g.s
	mb := s.unbox(a)
	t := s.eng.Now()
	*g.cCtrLookup++
	mcTile := s.mesh.MCTile(s.mesh.MCOf(mb))
	if g.c.Lookup(mb) {
		*g.cCtrHit++
		arr := t + g.tagLat + g.dataLat + g.payloadPen + s.oneway(g.tile, mcTile)
		g.toMC.send(arr, s.mc.metaProbeDoneCB, s.box(mb<<1|1))
		return
	}
	*g.cCtrMiss++
	g.toMC.send(t+g.tagLat+s.oneway(g.tile, mcTile), s.mc.metaProbeDoneCB, s.box(mb<<1))
}

// handleInsertData unpacks an L2 data-victim spill (block<<1|dirty).
func (g *llcSlice) handleInsertData(a any) {
	p := g.s.unbox(a)
	g.insert(p>>1, p&1 != 0, addr.KindData)
}

// handleInsertMeta unpacks a metadata insert from the MC
// (block<<8 | kind<<1 | dirty).
func (g *llcSlice) handleInsertMeta(a any) {
	p := g.s.unbox(a)
	g.insert(p>>8, p&1 != 0, addr.Kind(p>>1&0x7f))
}

// insert places a block in the slice (L2 victims, counter copies). A
// displaced dirty block travels to the MC as a writeback message — except
// during functional warmup, when the whole path runs synchronously.
func (g *llcSlice) insert(block uint64, dirty bool, kind addr.Kind) {
	v, ok := g.c.Insert(block, dirty, kind)
	if !ok || !v.Dirty {
		return
	}
	s := g.s
	if s.warming {
		if v.Kind == addr.KindData {
			s.mc.writebackData(v.Block)
		} else {
			s.mc.writebackMeta(v.Block)
		}
		return
	}
	cb := s.mc.wbDataCB
	if v.Kind != addr.KindData {
		cb = s.mc.wbMetaCB
	}
	mcTile := s.mesh.MCTile(s.mesh.MCOf(v.Block))
	g.toMC.send(s.eng.Now()+s.oneway(g.tile, mcTile), cb, s.box(v.Block))
}

// sliceFor maps a block to its home LLC slice.
func (s *Sim) sliceFor(block uint64) *llcSlice { return s.slices[s.mesh.SliceIndexOf(block)] }

// llcPeek probes the sliced LLC without touching LRU state (XPT's oracle).
func (s *Sim) llcPeek(block uint64) bool { return s.sliceFor(block).c.Peek(block) }
