package tsim

import (
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/emcc"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mcCtl is the timing model of the secure memory controller: the private
// counter/metadata cache, counter verification walks, AES pools,
// decryption/verification orchestration, writeback counter updates with
// invalidation, and the split-counter overflow engine. A single logical
// authority serves both MC tiles (DESIGN.md simplification).
type mcCtl struct {
	s    *Sim
	home *mc.Home
	aes  *mc.AESPool
	ovf  *mc.OverflowEngine

	ctrCacheLat sim.Time
	decodeLat   sim.Time

	// Counter-free direct-cipher state (cached at construction so the hot
	// paths never re-derive them).
	bipbipLat sim.Time // CtrBipBip: fixed cipher latency charged at L2
	insramOps int      // CtrInSRAM: 16 B lanes per block reserved per access

	pendData map[uint64]*mcDataPending
	pendMeta map[uint64]*metaFetch

	toSlice []port // metadata probes and inserts to the home slices
	toCore  []port // data responses, counter deliveries, invalidations

	freePend  *mcDataPending // mcDataPending pool
	freeCont  *metaCont      // metadata-continuation pool
	freeFetch *metaFetch     // metaFetch pool

	// Prebound handlers for packed-payload messages arriving at the MC
	// (bound once in newMCCtl).
	wbDataCB        func(any) // boxed victim block from a slice (data)
	wbMetaCB        func(any) // boxed victim block from a slice (metadata)
	metaProbeDoneCB func(any) // packed mb<<1|hit probe reply from a slice

	// Cached stats cells, bound at construction (see bindHot).
	cRejected       *int64
	cDataFill       *int64
	cCtrMissOnchip  *int64
	cQueueFullRetry *int64
	cInSRAMDecrypt  *int64
	cInSRAMEncrypt  *int64
	cBipBipEncrypt  *int64
	aExposure       *stats.Accumulator
}

// mcDataPending is the MC-side MSHR for one data block read.
type mcDataPending struct {
	block      uint64
	reqs       []*readReq
	needCrypto bool // MC decrypts/verifies (baseline, offload, on-chip counter miss)
	confirmed  bool // a confirmed LLC miss arrived (not just an XPT prediction)
	ctrStarted bool
	aesKnown   bool
	aesDone    sim.Time
	dataHere   bool
	dataAt     sim.Time
	responded  bool

	// fillDone and ctrDone are the entry's DRAM-fill and counter-path
	// completion callbacks, bound once when the entry is first allocated:
	// each captures the entry itself, so pooled reuse (the entry's
	// identity never changes) keeps the data read path allocation-free.
	fillDone func(at sim.Time)
	ctrDone  func(at sim.Time)
	next     *mcDataPending // freelist link
}

// obs reports the MSHR entry's trace context: the first traced requester.
// MC-side work (DRAM fill, counter walk, AES) is attributed to it; merged
// requesters keep only their own end-to-end latency.
func (p *mcDataPending) obs() *obs.Req {
	for _, r := range p.reqs {
		if r.tr != nil {
			return r.tr
		}
	}
	return nil
}

// getPending takes an MSHR entry from the pool, reset for req's block.
func (m *mcCtl) getPending(req *readReq) *mcDataPending {
	p := m.freePend
	if p == nil {
		p = &mcDataPending{}
		p.fillDone = func(at sim.Time) {
			p.dataHere, p.dataAt = true, at
			m.maybeRespond(p)
		}
		p.ctrDone = func(at sim.Time) {
			ready := at + m.decodeLat
			ob := p.obs()
			ob.Commit(obs.SegCtrFetch, ready)
			p.aesDone = m.aes.Reserve(emcc.AESOpsPerRead, ready)
			issue := p.aesDone - m.aes.Latency()
			ob.AddSpan(obs.SegAESQueue, ready, issue)
			ob.AddSpan(obs.SegAESCompute, issue, p.aesDone)
			p.aesKnown = true
			m.maybeRespond(p)
		}
	} else {
		m.freePend = p.next
	}
	*p = mcDataPending{block: req.block, reqs: append(p.reqs[:0], req), fillDone: p.fillDone, ctrDone: p.ctrDone}
	return p
}

// putPending retires a responded MSHR entry. Called only after the
// response loop: nothing schedules the entry's fillDone or holds the
// entry past its response, so reuse is safe.
func (m *mcCtl) putPending(p *mcDataPending) {
	for i := range p.reqs {
		p.reqs[i] = nil
	}
	p.next = m.freePend
	m.freePend = p
}

// metaCont is one pooled continuation in the metadata machinery. A plain
// freelist keeps it allocation-free. The func(at) bodies are bound once
// per entry (each captures only the entry) and read the argument fields
// set at checkout, replacing the per-call closures the hot write path
// used to allocate.
type metaCont struct {
	m      *mcCtl
	block  uint64            // bump: block whose counter advances; fetch/defer: the metadata block
	isData bool              // bump: data access (EMCC invalidation broadcast)
	at     sim.Time          // verify: DRAM arrival; deferred waiter: wake time
	done   func(at sim.Time) // deferred hit-path waiter
	next   *metaCont

	bumpDone   func(at sim.Time) // bumpCounter's counter-advance body
	fetchDone  func(at sim.Time) // fetchMetaFromDRAM's DRAM completion
	verifyDone func(at sim.Time) // parent-verification completion
}

func (m *mcCtl) getCont() *metaCont {
	c := m.freeCont
	if c == nil {
		c = &metaCont{m: m}
		c.bumpDone = func(at sim.Time) { c.runBump(at) }
		c.fetchDone = func(at sim.Time) { c.runFetch(at) }
		c.verifyDone = func(at sim.Time) { c.runVerify(at) }
		return c
	}
	m.freeCont = c.next
	return c
}

func (m *mcCtl) putCont(c *metaCont) {
	c.done = nil
	c.next = m.freeCont
	m.freeCont = c
}

// metaContCallCB fires a deferred counter-cache-hit waiter (fetchMeta).
func metaContCallCB(a any) {
	c := a.(*metaCont)
	done, at := c.done, c.at
	c.m.putCont(c)
	done(at)
}

// metaContDRAMCB starts the DRAM fetch after a counter-cache (and, when
// skipped, LLC) miss resolved at the cache lookup latency (fetchMeta).
func metaContDRAMCB(a any) {
	c := a.(*metaCont)
	m, mb := c.m, c.block
	m.putCont(c)
	m.fetchMetaFromDRAM(mb)
}

// runFetch resumes fetchMetaFromDRAM once the metadata burst arrives:
// tree roots verify against on-chip state, inner nodes against their
// (recursively fetched) parent.
func (c *metaCont) runFetch(at sim.Time) {
	m, mb := c.m, c.block
	parent, ok := m.home.Space.ParentOf(mb)
	if !ok {
		m.putCont(c)
		m.insertMeta(mb)
		m.completeMeta(mb, at)
		return
	}
	c.at = at // keep the entry: it becomes the verification continuation
	m.fetchMeta(parent, false, c.verifyDone)
}

// runVerify completes an inner metadata block once its parent is usable.
func (c *metaCont) runVerify(pAt sim.Time) {
	m, mb, at := c.m, c.block, c.at
	m.putCont(c)
	start := at
	if pAt > start {
		start = pAt
	}
	verified := m.aes.Reserve(1, start) + sim.NS(1)
	m.insertMeta(mb)
	m.completeMeta(mb, verified)
}

// runBump advances block's counter once its parent metadata is verified
// (bumpCounter's continuation).
func (c *metaCont) runBump(sim.Time) {
	m, block, isData := c.m, c.block, c.isData
	m.putCont(c)
	parent, _ := m.home.Space.ParentOf(block)
	ov := m.home.IncrementCounterOf(block)
	m.home.MarkMetaDirty(parent)
	if m.s.cfg.EMCC && isData {
		m.invalidateL2Counters(parent)
	}
	if !ov.Happened {
		return
	}
	first, n := m.home.Space.CoveredRange(parent)
	m.ovf.Start(first, n, ov.Level)
	if m.s.cfg.EMCC && ov.Level == 0 {
		m.invalidateL2Counters(parent)
	}
}

func (m *mcCtl) getFetch() *metaFetch {
	f := m.freeFetch
	if f == nil {
		return &metaFetch{}
	}
	m.freeFetch = f.next
	return f
}

type metaFetch struct {
	waiters []func(at sim.Time)
	next    *metaFetch // freelist link
}

func newMCCtl(s *Sim, dataBytes int64) *mcCtl {
	m := &mcCtl{
		s:           s,
		ctrCacheLat: s.cfg.CtrCacheLatency,
		pendData:    make(map[uint64]*mcDataPending),
		pendMeta:    make(map[uint64]*metaFetch),
	}
	m.wbDataCB = m.handleWBData
	m.wbMetaCB = m.handleWBMeta
	m.metaProbeDoneCB = m.handleMetaProbeDone
	m.bindHot()
	if !s.secure() {
		return m
	}
	switch s.cfg.Counter {
	case config.CtrBipBip:
		// Counter-free cipher in the cache controller: no metadata home,
		// no MC AES pool, no overflow engine. Decryption is charged at L2
		// on fill (see l2Ctl.bipbipArrived); encryption on writeback is
		// dedicated pipeline hardware, so only the op count is recorded.
		m.bipbipLat = s.cfg.BipBipLatency
		return m
	case config.CtrInSRAM:
		// Direct in-SRAM AES at the MC: the pool's latency and bandwidth
		// derive from the SRAM geometry instead of the fixed AESLatency.
		// No metadata home or overflow engine either.
		m.insramOps = addr.BlockBytes / 16 // one 16 B lane per AES pass
		m.aes = mc.NewAESPool(s.eng, config.InSRAMAESOpsPerSec(s.cfg), config.InSRAMAESLatency(s.cfg))
		return m
	}
	m.home = mc.NewHome(s.cfg, dataBytes)
	m.home.SetRecorder(s.ivr)
	m.decodeLat = m.home.Org.DecodeLatency()
	mcShare := 1.0
	if s.cfg.EMCC {
		mcShare = 1 - s.cfg.EMCCAESFraction
		if mcShare <= 0 {
			mcShare = 0.05 // the MC always keeps enough for counter verification
		}
	}
	m.aes = mc.NewAESPool(s.eng, s.cfg.AESPeakOpsPerSec*mcShare, s.cfg.AESLatency)
	m.ovf = mc.NewOverflowEngine(s.eng, s.st, s.cfg.OverflowMaxLive, s.cfg.OverflowSlots, m.issueOverflow)
	return m
}

func (m *mcCtl) bindHot() {
	st := m.s.st
	m.cRejected = st.CounterRef(stats.TsimMCRejectedWhileBlocked)
	m.cDataFill = st.CounterRef(stats.TsimMCDataFill)
	m.cCtrMissOnchip = st.CounterRef(stats.TsimCtrMissOnchip)
	m.cQueueFullRetry = st.CounterRef(stats.TsimDRAMQueueFullRetry)
	m.cInSRAMDecrypt = st.CounterRef(stats.InSRAMDecryptOps)
	m.cInSRAMEncrypt = st.CounterRef(stats.InSRAMEncryptOps)
	m.cBipBipEncrypt = st.CounterRef(stats.BipBipEncryptOps)
	m.aExposure = st.AccumRef(stats.TsimCryptoExposureMCPS)
}

// handleWBData unboxes a dirty data-victim writeback arriving over a
// slice's toMC seam.
func (m *mcCtl) handleWBData(a any) { m.writebackData(m.s.unbox(a)) }

// handleWBMeta unboxes a dirty metadata-victim writeback arriving over a
// slice's toMC seam.
func (m *mcCtl) handleWBMeta(a any) { m.writebackMeta(m.s.unbox(a)) }

// handleMetaProbeDone unboxes a home slice's counter-probe verdict
// (mb<<1|hit) arriving over its toMC seam.
func (m *mcCtl) handleMetaProbeDone(a any) { m.metaProbeDone(m.s.unbox(a)) }

// ---- Data read path ----

// dataRead receives a data miss request. confirmed=false marks an XPT
// prediction: the DRAM data access starts speculatively, but the MC's
// counter/cryptography path — which has verification side effects — only
// starts once the confirmed LLC miss arrives (Fig 14b: under XPT the
// baseline's counter access in LLC still follows the data's LLC lookup).
func (m *mcCtl) dataRead(req *readReq, confirmed bool) {
	if req.done() {
		return
	}
	if req.mcStarted {
		if confirmed {
			if p := m.pendData[req.block]; p != nil && !p.responded {
				m.confirm(p)
			}
		}
		return
	}
	// Sec. V: the MC rejects incoming LLC requests while a third
	// overflow is outstanding.
	if m.ovf != nil && m.ovf.Blocked() {
		*m.cRejected++
		req.tr.Begin(obs.SegMCQueue, m.s.eng.Now())
		retry := mcDataReadSpecCB
		if confirmed {
			retry = mcDataReadConfCB
		}
		m.s.schedReq(m.s.eng.Now()+sim.NS(200), retry, req)
		return
	}
	req.mcStarted = true

	if p := m.pendData[req.block]; p != nil && !p.responded {
		req.holdReq() // MSHR membership; the hold rides into the response event
		p.reqs = append(p.reqs, req)
		if m.reqNeedsMCCrypto(req) && !p.needCrypto {
			p.needCrypto = true
		}
		if confirmed {
			m.confirm(p)
		} else if p.confirmed && p.needCrypto {
			m.startCounterPath(p)
		}
		return
	}
	req.holdReq() // MSHR membership; the hold rides into the response event
	p := m.getPending(req)
	p.needCrypto = m.reqNeedsMCCrypto(req)
	m.pendData[req.block] = p
	// One fill per MSHR entry: internal/check's conservation rule compares
	// this against the DRAM model's issued data reads after drain.
	*m.cDataFill++
	m.enqueueDRAM(req.block, false, dram.TrafficData, req.tr, p.fillDone)
	if confirmed {
		m.confirm(p)
	}
}

// confirm marks the miss as real, releasing the counter path and any
// response that was held for confirmation.
func (m *mcCtl) confirm(p *mcDataPending) {
	p.confirmed = true
	if p.needCrypto {
		m.startCounterPath(p)
	}
	m.maybeRespond(p)
}

// reqNeedsMCCrypto decides whether the MC must run the counter-mode
// decrypt/verify path for this read: always for counter-backed designs
// outside EMCC; under EMCC only when the miss request carries the offload
// bit (counter-miss upgrades arrive via counterMissFromL2). The counter-free
// designs never take it — CtrInSRAM's direct cipher is charged in
// maybeRespond and CtrBipBip decrypts at L2.
func (m *mcCtl) reqNeedsMCCrypto(req *readReq) bool {
	if !m.s.counters() {
		return false
	}
	if !m.s.cfg.EMCC {
		return true
	}
	return req.offload
}

// startCounterPath resolves the data block's counter at the MC and books
// the AES work for decryption + verification.
func (m *mcCtl) startCounterPath(p *mcDataPending) {
	if p.ctrStarted {
		return
	}
	p.ctrStarted = true
	cb := m.home.CounterBlockOf(p.block)
	ob := p.obs()
	ob.MarkCtr(obs.CtrAtMC)
	ob.Begin(obs.SegCtrFetch, m.s.eng.Now())
	m.fetchMeta(cb, false, p.ctrDone)
}

// maybeRespond sends the data response once its conditions are met.
func (m *mcCtl) maybeRespond(p *mcDataPending) {
	if p.responded || !p.dataHere {
		return
	}
	if p.needCrypto && !p.aesKnown {
		return
	}
	if m.s.secure() && !p.confirmed && !p.needCrypto {
		// An EMCC untagged response may only answer a confirmed miss;
		// a speculative read that beat the LLC lookup waits for it.
		return
	}
	// Conservation: one MSHR entry ⇔ one DRAM fill ⇔ one response. A
	// pending entry that lost its registration (or its requesters) would
	// mean a fill was issued twice or a response answers nobody.
	if rec := m.s.ivr; rec.On() {
		if m.pendData[p.block] != p {
			rec.Failf("mc", "data fill for block %#x responds without an owning MSHR entry", p.block)
		}
		if len(p.reqs) == 0 {
			rec.Failf("mc", "data fill for block %#x completes with no waiting requests", p.block)
		}
	}
	p.responded = true
	delete(m.pendData, p.block)

	var leave sim.Time
	tagged := false
	bipbip := false
	switch {
	case !m.s.secure():
		leave = p.dataAt
	case p.needCrypto:
		// Decrypt + verify at MC: XOR and dot product after AES.
		leave = p.dataAt
		if p.aesDone > leave {
			leave = p.aesDone
		}
		m.aExposure.Observe((leave - p.dataAt).Nanoseconds())
		for _, r := range p.reqs {
			r.tr.MarkDecrypt(obs.DecAtMC, p.dataAt, leave)
		}
		leave += sim.NS(1)
		tagged = true
	case m.s.cfg.Counter == config.CtrInSRAM:
		// Direct in-SRAM AES: unlike counter-mode OTPs, the cipher can
		// only start once the ciphertext is on-chip, so the whole pass
		// (queue + geometry-derived compute) is exposed by construction.
		leave = m.aes.Reserve(m.insramOps, p.dataAt)
		*m.cInSRAMDecrypt++
		m.aExposure.Observe((leave - p.dataAt).Nanoseconds())
		for _, r := range p.reqs {
			r.tr.MarkDecrypt(obs.DecAtMC, p.dataAt, leave)
			r.tr.AddSpan(obs.SegInSRAMCipher, p.dataAt, leave)
		}
		leave += sim.NS(1)
		tagged = true
	case m.s.cfg.Counter == config.CtrBipBip:
		// Ciphertext is forwarded as-is; the cache controller's tweakable
		// cipher decrypts on arrival at L2 (bipbipArrived).
		leave = p.dataAt + sim.NS(1)
		bipbip = true
	default:
		// EMCC untagged response: compute the ciphertext dot product
		// and embed MAC⊕dot (Sec. IV-D).
		leave = p.dataAt + sim.NS(1)
	}
	// Each request's MSHR-membership hold transfers to its response
	// arrival event, whose callback releases it.
	arrival := cipherArrivedCB
	switch {
	case !m.s.secure():
		arrival = completePlainLocalCB
	case tagged:
		arrival = completePlainMCCB
	case bipbip:
		arrival = bipbipArrivedCB
	}
	mcTile := m.s.mesh.MCTile(m.s.mesh.MCOf(p.block))
	slice := m.s.sliceFor(p.block).tile
	for _, r := range p.reqs {
		arr := leave + m.s.oneway(mcTile, slice) + m.s.oneway(slice, r.l2.tile)
		r.tr.AddSpan(obs.SegNoCResp, leave, arr)
		m.toCore[r.l2.id].send(arr, arrival, r)
	}
	m.putPending(p)
}

// counterMissFromL2 handles an EMCC counter request that missed on-chip
// (L2 and LLC): the MC takes over cryptography for the data access when it
// still can, and in any case resolves, verifies and distributes the
// counter block to the LLC and the requesting L2 (Sec. IV-D).
func (m *mcCtl) counterMissFromL2(req *readReq, cb uint64) {
	*m.cCtrMissOnchip++
	req.tr.MarkCtr(obs.CtrAtMC)
	if p := m.pendData[req.block]; p != nil && !p.responded && !p.needCrypto {
		// The counter request is real (not speculative): the MC can
		// take the cryptography over right away.
		p.needCrypto = true
		m.startCounterPath(p)
	}
	// The request already missed in LLC on its way here; go straight to
	// the counter cache and DRAM. The metadata fetch's continuation keeps
	// a reference to req across an unbounded wait, so it takes a hold.
	req.holdReq()
	m.fetchMeta(cb, true, req.ctrMissDone)
}

// ctrMissFetchDone resumes a counterMissFromL2 request once the MC holds
// a verified counter: the copy travels MC -> home slice (cached there)
// and on to the requesting L2. Bound once per pooled readReq.
func ctrMissFetchDone(req *readReq, at sim.Time) {
	m := req.l2.s.mc
	cb := m.home.CounterBlockOf(req.block)
	mcTile := m.s.mesh.MCTile(m.s.mesh.MCOf(cb))
	j := m.s.mesh.SliceIndexOf(cb)
	g := m.s.slices[j]
	insAt := at + m.s.oneway(mcTile, g.tile)
	m.toSlice[j].send(insAt, g.insertMetaCB, m.s.box(cb<<8|uint64(addr.KindCounter)<<1))
	req.holdReq()
	m.toCore[req.l2.id].send(insAt+m.s.oneway(g.tile, req.l2.tile), counterArrivedCB, req)
	req.release()
}

// ---- Metadata fetch (counter cache -> LLC -> DRAM + verification) ----

// fetchMeta obtains a verified metadata block at the MC, calling done with
// the time it becomes usable. Concurrent fetches of one block merge.
// skipLLC is set when the caller already observed an LLC miss for mb.
func (m *mcCtl) fetchMeta(mb uint64, skipLLC bool, done func(at sim.Time)) {
	t := m.s.eng.Now()
	if m.home.LookupMeta(mb) {
		at := t + m.ctrCacheLat
		c := m.getCont()
		c.done, c.at = done, at
		m.s.atCall(at, metaContCallCB, c)
		return
	}
	if f := m.pendMeta[mb]; f != nil {
		f.waiters = append(f.waiters, done)
		return
	}
	f := m.getFetch()
	f.waiters = append(f.waiters, done)
	m.pendMeta[mb] = f
	missAt := t + m.ctrCacheLat
	if m.s.cfg.CountersInLLC && !skipLLC {
		mcTile := m.s.mesh.MCTile(m.s.mesh.MCOf(mb))
		j := m.s.mesh.SliceIndexOf(mb)
		g := m.s.slices[j]
		m.toSlice[j].send(missAt+m.s.oneway(mcTile, g.tile), g.metaProbeCB, m.s.box(mb))
		return
	}
	c := m.getCont()
	c.block = mb
	m.s.atCall(missAt, metaContDRAMCB, c)
}

// metaProbeDone resumes a metadata fetch with the home slice's probe
// verdict (packed mb<<1|hit; see llcSlice.handleMetaProbe): a hit fills
// the MC's cache and wakes the waiters, a miss falls through to DRAM.
func (m *mcCtl) metaProbeDone(p uint64) {
	mb, hit := p>>1, p&1 != 0
	if hit {
		m.insertMeta(mb)
		m.completeMeta(mb, m.s.eng.Now())
		return
	}
	m.fetchMetaFromDRAM(mb)
}

// fetchMetaFromDRAM reads a metadata block from memory and verifies it
// against its parent (fetched recursively) before use.
func (m *mcCtl) fetchMetaFromDRAM(mb uint64) {
	c := m.getCont()
	c.block = mb
	m.enqueueDRAM(mb, false, dram.TrafficCounter, nil, c.fetchDone)
}

// insertMeta fills the MC's metadata cache. Every displaced metadata block
// — clean or dirty — spills into the LLC (second-level counter cache).
func (m *mcCtl) insertMeta(mb uint64) {
	v, ok := m.home.InsertMeta(mb, false)
	if ok {
		m.spillMeta(v.Block, v.Dirty)
	}
}

// completeMeta wakes every waiter of a finished metadata fetch.
func (m *mcCtl) completeMeta(mb uint64, at sim.Time) {
	f := m.pendMeta[mb]
	if f == nil {
		return
	}
	delete(m.pendMeta, mb)
	for _, w := range f.waiters {
		w(at)
	}
	for i := range f.waiters {
		f.waiters[i] = nil
	}
	f.waiters = f.waiters[:0]
	f.next = m.freeFetch
	m.freeFetch = f
}

// spillMeta routes metadata leaving the MC's cache: into the LLC when
// counters live there, else straight to DRAM when dirty.
func (m *mcCtl) spillMeta(mb uint64, dirty bool) {
	if m.s.cfg.CountersInLLC {
		kind := m.home.Space.Kind(mb)
		if m.s.warming {
			m.s.sliceFor(mb).insert(mb, dirty, kind)
			return
		}
		mcTile := m.s.mesh.MCTile(m.s.mesh.MCOf(mb))
		j := m.s.mesh.SliceIndexOf(mb)
		g := m.s.slices[j]
		p := mb<<8 | uint64(kind)<<1
		if dirty {
			p |= 1
		}
		m.toSlice[j].send(m.s.eng.Now()+m.s.oneway(mcTile, g.tile), g.insertMetaCB, m.s.box(p))
		return
	}
	if dirty {
		m.writebackMeta(mb)
	}
}

// ---- Writebacks ----

// writebackData handles a dirty data block arriving from the LLC: encrypt
// (AES bandwidth), update its counter, invalidate EMCC L2 copies, write.
func (m *mcCtl) writebackData(block uint64) {
	if m.s.warming {
		// Counter-free designs have no counter values to warm.
		if m.s.counters() {
			m.s.warmBump(block)
			if m.s.cfg.EMCC {
				for _, l2 := range m.s.l2s {
					l2.invalidateCounter(m.home.CounterBlockOf(block))
				}
			}
		}
		return
	}
	switch {
	case m.s.counters():
		m.aes.ReserveLow(emcc.AESOpsPerWrite, m.s.eng.Now())
		m.bumpCounter(block, true)
	case m.s.cfg.Counter == config.CtrBipBip:
		// Dedicated cipher pipeline in the controller: off the critical
		// path, no shared pool to queue on, no counter to advance.
		*m.cBipBipEncrypt++
	case m.s.cfg.Counter == config.CtrInSRAM:
		// Background-priority encryption on the in-SRAM arrays.
		m.aes.ReserveLow(m.insramOps, m.s.eng.Now())
		*m.cInSRAMEncrypt++
	}
	m.enqueueDRAM(block, true, dram.TrafficData, nil, nil)
}

// writebackMeta handles a dirty metadata block reaching DRAM.
func (m *mcCtl) writebackMeta(mb uint64) {
	if m.s.warming {
		m.s.warmBump(mb)
		return
	}
	m.enqueueDRAM(mb, true, dram.TrafficCounter, nil, nil)
	m.bumpCounter(mb, false)
}

// bumpCounter advances the write counter protecting `block`, handling
// overflow and EMCC invalidation. The owning counter block is fetched to
// the MC first (bandwidth on the writeback path).
func (m *mcCtl) bumpCounter(block uint64, isData bool) {
	parent, ok := m.home.Space.ParentOf(block)
	if !ok {
		return // root counter lives on-chip
	}
	c := m.getCont()
	c.block, c.isData = block, isData
	m.fetchMeta(parent, false, c.bumpDone)
}

// invalidateL2Counters broadcasts a counter-block invalidation to every L2
// (the Home-Agent-style circuit of Sec. IV-C).
func (m *mcCtl) invalidateL2Counters(cb uint64) {
	now := m.s.eng.Now()
	mcTile := m.s.mesh.MCTile(m.s.mesh.MCOf(cb))
	for c, l2 := range m.s.l2s {
		m.toCore[c].send(now+m.s.oneway(mcTile, l2.tile), l2.invCtrCB, m.s.box(cb))
	}
}

// ---- DRAM plumbing ----

// enqueueDRAM submits a request, retrying while the target queue is full.
// ob, when non-nil, is the traced request the access serves: queue-full
// retry time is attributed to SegMCQueue and the DRAM model attributes
// queue/service time itself.
func (m *mcCtl) enqueueDRAM(block uint64, write bool, kind dram.TrafficKind, ob *obs.Req, done func(at sim.Time)) {
	m.enqueueReq(m.s.dram.NewRequest(block, write, kind, done, ob))
}

// enqueueReq pushes one pooled request, re-using the same request across
// queue-full retries.
func (m *mcCtl) enqueueReq(r *dram.Request) {
	if !m.s.dram.Enqueue(r) {
		*m.cQueueFullRetry++
		r.Obs.Begin(obs.SegMCQueue, m.s.eng.Now())
		m.s.eng.After(sim.NS(100), func() { m.enqueueReq(r) })
		return
	}
	r.Obs.Commit(obs.SegMCQueue, m.s.eng.Now())
}

// issueOverflow injects one overflow re-encryption access, charging the AES
// work for re-encrypting a block (decrypt 5 + encrypt 8) on its read.
func (m *mcCtl) issueOverflow(block uint64, write bool, level int, done func(at sim.Time)) bool {
	kind := dram.TrafficOverflowL0
	if level > 0 {
		kind = dram.TrafficOverflowHi
	}
	r := m.s.dram.NewRequest(block, write, kind, done, nil)
	if !m.s.dram.Enqueue(r) {
		m.s.dram.Recycle(r)
		return false
	}
	if !write {
		m.aes.ReserveLow(emcc.AESOpsPerRead+emcc.AESOpsPerWrite, m.s.eng.Now())
	}
	return true
}
