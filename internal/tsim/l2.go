package tsim

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/emcc"
	"repro/internal/mc"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/stats"
)

// waiter is anything blocked on an L2 read: the L2 calls complete exactly
// once, when the block is decrypted, verified and resident. Using an
// interface instead of a `func(at)` keeps the handoff allocation-free —
// the caller passes a pooled struct it already owns (e.g. coreMiss).
type waiter interface {
	complete(at sim.Time)
}

// readReq tracks one L2 miss through the hierarchy, including the EMCC
// cryptography state of Sec. IV: where the counter was found, whether the
// offload decision bit is set, and how the response (plaintext from LLC,
// tagged-verified from MC, or ciphertext + MAC⊕dot to finish at L2) lands.
// It doubles as the L2 MSHR entry: waiters holds every merged requester.
//
// readReqs are pooled per-l2Ctl. Every scheduled event or registry entry
// that references the request counts as one hold (schedReq / holdReq);
// release drops a hold, and the request returns to the freelist only once
// it has completed and the last hold is gone — so stale events (which
// no-op on the completed flag) can never observe a recycled request.
type readReq struct {
	block   uint64
	isStore bool
	l2      *l2Ctl
	missAt  sim.Time // L2 miss detection time (Fig 17 latency origin)
	tr      *obs.Req // trace context; nil when untraced (prefetches, tracing off)

	waiters []waiter // requesters woken at finish; empty for prefetches
	holds   int32    // outstanding event/registry references
	free    *readReq // freelist link

	// ctrMissDone resumes a counter miss that went MC-side for a verified
	// copy (ctrMissFetchDone). Bound once when the pooled request is first
	// allocated — it captures only the request, whose identity survives
	// reuse — and preserved across resets, keeping the path allocation-free.
	ctrMissDone func(at sim.Time)

	offload   bool // decision bit: AES queue pressure at miss time
	completed bool // see done()
	mcStarted bool // dedupe XPT + LLC-forwarded arrivals at the MC
	llcMissed bool // the data access missed in LLC (Fig 11; set by the miss note)

	// L2-side cryptography state (EMCC).
	ctrKnown   bool
	ctrReady   sim.Time // when the counter is usable at L2
	aesStarted bool
	aesKnown   bool
	aesDone    sim.Time
	cipherHere bool // untagged ciphertext response arrived at L2
	cipherAt   sim.Time
	finishAt   sim.Time // scheduled completion time (cipher-finish path)
}

// holdReq takes one reference for an event or registry entry about to be
// created; every hold is balanced by exactly one release.
func (r *readReq) holdReq() { r.holds++ }

// done reports whether the request has completed.
func (r *readReq) done() bool { return r.completed }

// release drops one hold; the last release after completion recycles the
// request.
func (r *readReq) release() {
	r.holds--
	if rec := r.l2.s.ivr; rec.On() && r.holds < 0 {
		rec.Failf("tsim", "readReq for block %#x over-released", r.block)
	}
	if r.holds == 0 && r.completed {
		r.l2.putReq(r)
	}
}

// l2Ctl is the per-core L2 cache controller. Under EMCC it also hosts a
// share of the AES units and the counter-side logic.
type l2Ctl struct {
	s    *Sim
	id   int
	tile noc.NodeID
	c    *cache.Cache
	lat  sim.Time
	aes  *mc.AESPool // nil unless EMCC moves AES bandwidth here
	pend map[uint64]*readReq
	// freeReq is the readReq freelist; see the readReq doc comment.
	freeReq *readReq
	// monitor, when non-nil, is the Sec. IV-F intensity monitor that
	// dynamically turns EMCC off for non-memory-intensive phases.
	monitor *emcc.IntensityMonitor
	// pf, when non-nil, is the Table I constant-stride prefetcher.
	pf *prefetch.Prefetcher

	toSlice []port // per-slice request/spill seams
	// invCtrCB handles an MC counter-invalidation message (boxed block).
	invCtrCB func(any)

	// Cached stats cells (bound after warmup reset; see Sim.bindHot).
	cDataMiss      *int64
	cPrefetch      *int64
	cOffloadQueue  *int64
	cDynamicOff    *int64
	cCtrHit        *int64
	cCtrMiss       *int64
	cSpecFetch     *int64
	cCtrInserted   *int64
	cUseless       *int64
	cDecryptAtMC   *int64
	cDecryptAtL2   *int64
	cBipBipDecrypt *int64
	cInvalidations *int64
	aMissLat       *stats.Accumulator
	aExposure      *stats.Accumulator
}

func newL2Ctl(s *Sim, id int) *l2Ctl {
	l := &l2Ctl{
		s:    s,
		id:   id,
		tile: s.mesh.CoreTile(id),
		c:    cache.New(fmt.Sprintf("l2.%d", id), s.cfg.L2Bytes, s.cfg.L2Ways),
		lat:  s.cfg.L2Latency,
		pend: make(map[uint64]*readReq),
	}
	l.c.SetRecorder(s.ivr)
	if s.cfg.EMCC && s.cfg.EMCCAESFraction > 0 {
		perL2 := s.cfg.AESPeakOpsPerSec * s.cfg.EMCCAESFraction / float64(s.opt.Cores)
		l.aes = mc.NewAESPool(s.eng, perL2, s.cfg.AESLatency)
		l.c.SetCounterCap(s.cfg.EMCCL2CounterBytes)
	}
	if s.cfg.EMCC && s.cfg.EMCCDynamicOff {
		l.monitor = emcc.NewIntensityMonitor()
	}
	if s.cfg.PrefetchL2Degree > 0 {
		l.pf = prefetch.New(s.cfg.PrefetchTable, s.cfg.PrefetchL2Degree)
	}
	l.invCtrCB = func(a any) { l.invalidateCounter(s.unbox(a)) }
	return l
}

func (l *l2Ctl) bindHot() {
	st := l.s.st
	l.cDataMiss = st.CounterRef(stats.TsimL2DataMiss)
	l.cPrefetch = st.CounterRef(stats.TsimL2Prefetch)
	l.cOffloadQueue = st.CounterRef(stats.EmccOffloadQueue)
	l.cDynamicOff = st.CounterRef(stats.EmccDynamicOffMiss)
	l.cCtrHit = st.CounterRef(stats.EmccL2CtrHit)
	l.cCtrMiss = st.CounterRef(stats.EmccL2CtrMiss)
	l.cSpecFetch = st.CounterRef(stats.EmccSpecFetch)
	l.cCtrInserted = st.CounterRef(stats.EmccCtrInserted)
	l.cUseless = st.CounterRef(stats.EmccUseless)
	l.cDecryptAtMC = st.CounterRef(stats.EmccDecryptAtMC)
	l.cDecryptAtL2 = st.CounterRef(stats.EmccDecryptAtL2)
	l.cBipBipDecrypt = st.CounterRef(stats.BipBipDecryptOps)
	l.cInvalidations = st.CounterRef(stats.EmccInvalidations)
	l.aMissLat = st.AccumRef(stats.TsimL2ReadMissLatencyPS)
	l.aExposure = st.AccumRef(stats.TsimCryptoExposureL2PS)
}

func (l *l2Ctl) getReq() *readReq {
	r := l.freeReq
	if r == nil {
		r = &readReq{l2: l}
		// Bound once per pooled request: the continuation captures only
		// the request, whose identity survives reuse.
		r.ctrMissDone = func(at sim.Time) { ctrMissFetchDone(r, at) }
		return r
	}
	l.freeReq = r.free
	w := r.waiters[:0]
	*r = readReq{l2: l, waiters: w, ctrMissDone: r.ctrMissDone}
	return r
}

func (l *l2Ctl) putReq(r *readReq) {
	for i := range r.waiters {
		r.waiters[i] = nil
	}
	r.waiters = r.waiters[:0]
	r.tr = nil
	r.free = l.freeReq
	l.freeReq = r
}

// ---- Prebound event callbacks (see sim.AtCall) ----
//
// Each callback re-derives any routing values (counter block, home slice,
// MC tile) from the request: those are pure functions of the address, so
// recomputing them at fire time is exact. Every callback ends by releasing
// the hold its schedReq (or the sender's explicit holdReq) took.

func missPathCB(x any) {
	req := x.(*readReq)
	req.l2.missPath(req)
	req.release()
}

func counterProbeCB(x any) {
	req := x.(*readReq)
	req.l2.counterProbe(req)
	req.release()
}

func llcDataAccessCB(x any) {
	req := x.(*readReq)
	req.l2.s.sliceFor(req.block).dataAccess(req)
	req.release()
}

func mcDataReadSpecCB(x any) {
	req := x.(*readReq)
	req.l2.s.mc.dataRead(req, false)
	req.release()
}

func mcDataReadConfCB(x any) {
	req := x.(*readReq)
	req.l2.s.mc.dataRead(req, true)
	req.release()
}

func llcCounterAccessCB(x any) {
	req := x.(*readReq)
	s := req.l2.s
	cb := s.mc.home.CounterBlockOf(req.block)
	s.sliceFor(cb).counterAccessFromL2(req, cb)
	req.release()
}

func counterArrivedCB(x any) {
	req := x.(*readReq)
	req.l2.counterArrived(req, req.l2.s.mc.home.CounterBlockOf(req.block))
	req.release()
}

func counterMissCB(x any) {
	req := x.(*readReq)
	req.l2.s.mc.counterMissFromL2(req, req.l2.s.mc.home.CounterBlockOf(req.block))
	req.release()
}

func llcMissNoteCB(x any) {
	req := x.(*readReq)
	req.l2.missNote(req)
	req.release()
}

func aesStartCB(x any) {
	req := x.(*readReq)
	req.l2.aesStart(req)
	req.release()
}

func finishCipherCB(x any) {
	req := x.(*readReq)
	req.l2.finish(req, req.finishAt)
	req.release()
}

func completePlainLocalCB(x any) {
	req := x.(*readReq)
	req.l2.completePlain(req, false)
	req.release()
}

func completePlainMCCB(x any) {
	req := x.(*readReq)
	req.l2.completePlain(req, true)
	req.release()
}

func cipherArrivedCB(x any) {
	req := x.(*readReq)
	req.l2.cipherArrived(req)
	req.release()
}

func bipbipArrivedCB(x any) {
	req := x.(*readReq)
	req.l2.bipbipArrived(req)
	req.release()
}

// read serves an L1 miss (load or store fill). w.complete fires when the
// block is decrypted, verified and resident in L2. tr is the request's
// trace context (nil when untraced).
func (l *l2Ctl) read(block uint64, isStore bool, tr *obs.Req, w waiter) {
	t := l.s.eng.Now()
	if l.monitor != nil {
		l.monitor.OnRequest()
	}
	if l.c.Lookup(block) {
		tr.AddSpan(obs.SegL2Lookup, t, t+l.lat)
		w.complete(t + l.lat)
		return
	}
	if r := l.pend[block]; r != nil {
		// The merged request rides the primary miss: it keeps its own L1
		// span and total latency, but the segment breakdown belongs to
		// the miss that launched the path.
		tr.MarkMerged()
		r.waiters = append(r.waiters, w)
		return
	}
	tM := t + l.lat
	tr.AddSpan(obs.SegL2Lookup, t, tM)
	req := l.getReq()
	req.block, req.isStore, req.missAt, req.tr = block, isStore, tM, tr
	req.waiters = append(req.waiters, w)
	req.holdReq() // MSHR registration; released in finish
	l.pend[block] = req
	*l.cDataMiss++
	l.s.schedReq(tM, missPathCB, req)
	// Demand misses train the stride prefetcher; candidates fetch in the
	// background through the same secure-read machinery.
	if l.pf != nil {
		for _, cand := range l.pf.Observe(block) {
			l.prefetchInto(cand)
		}
	}
}

// prefetchInto launches a background fill. It does not train the
// prefetcher (no runaway chains) and nobody waits on it.
func (l *l2Ctl) prefetchInto(block uint64) {
	if l.c.Peek(block) || l.pend[block] != nil {
		return
	}
	t := l.s.eng.Now()
	tM := t + l.lat
	req := l.getReq()
	req.block, req.missAt = block, tM
	req.holdReq() // MSHR registration; released in finish
	l.pend[block] = req
	*l.cPrefetch++
	l.s.schedReq(tM, missPathCB, req)
}

// missPath launches the parallel data and (under EMCC) counter requests.
func (l *l2Ctl) missPath(req *readReq) {
	s := l.s
	tM := s.eng.Now()

	emccOn := s.cfg.EMCC && s.secure() && (l.monitor == nil || l.monitor.Enabled())
	if emccOn {
		// Adaptive offload decision (Sec. IV-D): the bit travels with
		// the miss request.
		if l.aes == nil || s.pol.ShouldOffload(l.aes.QueueDelay()) {
			req.offload = true
			req.tr.MarkOffload()
			*l.cOffloadQueue++
		}
		// Serial counter lookup in L2 during spare cycles ('J').
		s.schedReq(tM+s.pol.LookupDelay, counterProbeCB, req)
	} else if s.cfg.EMCC && s.secure() {
		// Dynamic EMCC-off (Sec. IV-F): all cryptography at the MC.
		req.offload = true
		*l.cDynamicOff++
	}

	// Data request to the block's home LLC slice.
	j := s.mesh.SliceIndexOf(req.block)
	slice := s.slices[j].tile
	req.tr.AddSpan(obs.SegNoCReq, tM, tM+s.oneway(l.tile, slice))
	req.holdReq()
	l.toSlice[j].send(tM+s.oneway(l.tile, slice), llcDataAccessCB, req)

	// XPT LLC-miss prediction: forward the miss straight to the MC in
	// parallel (idealised: only when the block really misses in LLC).
	if s.cfg.XPT && !s.llcPeek(req.block) {
		mcTile := s.mesh.MCTile(s.mesh.MCOf(req.block))
		s.schedReq(tM+s.oneway(l.tile, mcTile), mcDataReadSpecCB, req)
	}
}

// counterProbe is the Sec. IV-C serial counter lookup in L2, followed by a
// speculative parallel fetch from LLC on miss.
func (l *l2Ctl) counterProbe(req *readReq) {
	s := l.s
	if req.done() {
		return
	}
	t := s.eng.Now()
	// The probe span covers the serial-lookup wait ('J') plus the lookup.
	req.tr.AddSpan(obs.SegCtrProbeL2, req.missAt, t)
	cb := s.mc.home.CounterBlockOf(req.block)
	if l.c.Lookup(cb) {
		*l.cCtrHit++
		req.ctrKnown = true
		req.ctrReady = t + s.mc.decodeLat
		req.tr.MarkCtr(obs.CtrAtL2)
		req.tr.AddSpan(obs.SegCtrFetch, t, req.ctrReady)
		l.maybeStartAES(req)
		return
	}
	*l.cCtrMiss++
	*l.cSpecFetch++
	req.tr.Begin(obs.SegCtrFetch, t)
	j := s.mesh.SliceIndexOf(cb)
	req.holdReq()
	l.toSlice[j].send(t+s.oneway(l.tile, s.slices[j].tile), llcCounterAccessCB, req)
}

// counterArrived delivers a verified counter block to L2 (from LLC or,
// after an on-chip miss, from the MC).
func (l *l2Ctl) counterArrived(req *readReq, cb uint64) {
	s := l.s
	t := s.eng.Now()
	l.insertCounter(cb)
	if req.llcMissed {
		// The fetch that triggered this counter already proved it
		// useful: its own data access missed in LLC (Fig 11).
		l.c.MarkUsed(cb)
	}
	if req.done() || req.ctrKnown {
		return
	}
	req.ctrKnown = true
	req.ctrReady = t + s.mc.decodeLat
	req.tr.Commit(obs.SegCtrFetch, req.ctrReady)
	l.maybeStartAES(req)
}

// missNote records that the request's data access missed in LLC: the home
// slice sends it alongside the MC forward, so the llcMissed bit and the
// Fig 11 used-counter mark are written where they are read — at the L2.
func (l *l2Ctl) missNote(req *readReq) {
	req.llcMissed = true
	l.c.MarkUsed(l.s.mc.home.CounterBlockOf(req.block))
}

// insertCounter caches a counter block in L2 under the 32 KB cap with the
// Fig 11 useless-fetch accounting.
func (l *l2Ctl) insertCounter(cb uint64) {
	*l.cCtrInserted++
	v, ok := l.c.Insert(cb, false, addr.KindCounter)
	if !ok {
		return
	}
	if v.Kind == addr.KindCounter {
		if !v.WasUsed {
			*l.cUseless++
		}
		return
	}
	l.spillVictim(v)
}

// maybeStartAES arms the gated AES start of Sec. IV-D: no earlier than the
// counter is decoded, and no earlier than one LLC-hit latency after the
// miss (so LLC hits never waste AES bandwidth at L2).
func (l *l2Ctl) maybeStartAES(req *readReq) {
	s := l.s
	if req.aesStarted || req.done() || req.offload || l.aes == nil {
		return
	}
	req.aesStarted = true
	start := req.ctrReady
	if gate := req.missAt + s.pol.LLCHitWait; gate > start {
		start = gate
	}
	s.schedReq(start, aesStartCB, req)
}

// aesStart reserves local AES bandwidth at the gated start time.
func (l *l2Ctl) aesStart(req *readReq) {
	if req.done() {
		req.aesStarted = false // never reserved; nothing wasted
		return
	}
	req.aesKnown = true
	req.aesDone = l.aes.Reserve(emcc.AESOpsPerRead, l.s.eng.Now())
	issue := req.aesDone - l.aes.Latency()
	req.tr.AddSpan(obs.SegAESQueue, l.s.eng.Now(), issue)
	req.tr.AddSpan(obs.SegAESCompute, issue, req.aesDone)
	l.maybeFinishCipher(req)
}

// completePlain finishes a request whose data came decrypted: an LLC hit
// (on-chip data is plaintext) or a tagged-verified MC response.
func (l *l2Ctl) completePlain(req *readReq, fromMC bool) {
	if req.done() {
		return
	}
	if fromMC {
		*l.cDecryptAtMC++
		if l.monitor != nil {
			l.monitor.OnDRAMFill()
		}
	}
	l.finish(req, l.s.eng.Now())
}

// cipherArrived handles an untagged MC response: ciphertext plus
// MAC⊕dot-product, to be finished with the locally computed AES results.
func (l *l2Ctl) cipherArrived(req *readReq) {
	req.cipherHere = true
	req.cipherAt = l.s.eng.Now()
	if l.monitor != nil {
		l.monitor.OnDRAMFill()
	}
	l.maybeFinishCipher(req)
}

// maybeFinishCipher completes the read once both the ciphertext and the
// local AES results are available (the 1 ns XOR + compare is the only
// data-dependent work, Sec. II).
func (l *l2Ctl) maybeFinishCipher(req *readReq) {
	if req.done() || !req.cipherHere || !req.aesKnown {
		return
	}
	at := req.cipherAt
	if req.aesDone > at {
		at = req.aesDone
	}
	l.aExposure.Observe(float64(at - req.cipherAt))
	req.tr.MarkDecrypt(obs.DecAtL2, req.cipherAt, at)
	at += sim.NS(1)
	*l.cDecryptAtL2++
	req.finishAt = at
	l.s.schedReq(at, finishCipherCB, req)
}

// bipbipArrived handles a ciphertext response under CtrBipBip: the cache
// controller's tweakable cipher decrypts the block in a fixed BipBipLatency.
// With no counter to pre-resolve and no OTP to precompute, the full cipher
// pass sits on the critical path — the design's bet is that the pass is
// short enough not to matter.
func (l *l2Ctl) bipbipArrived(req *readReq) {
	if req.done() {
		return
	}
	at := l.s.eng.Now()
	done := at + l.s.mc.bipbipLat
	*l.cBipBipDecrypt++
	l.aExposure.Observe(float64(done - at))
	req.tr.MarkDecrypt(obs.DecAtL2, at, done)
	req.tr.AddSpan(obs.SegBipBipCipher, at, done)
	req.finishAt = done
	l.s.schedReq(done, finishCipherCB, req)
}

// finish inserts the block, wakes waiters and retires the MSHR.
func (l *l2Ctl) finish(req *readReq, at sim.Time) {
	if req.done() {
		return
	}
	req.completed = true
	l.fill(req.block, false, at)
	if l.pend[req.block] == req {
		delete(l.pend, req.block)
	}
	if !req.isStore && len(req.waiters) > 0 {
		l.aMissLat.Observe(float64(at - req.missAt))
	}
	for _, w := range req.waiters {
		w.complete(at)
	}
	req.release() // the MSHR registration hold
}

// fill inserts a data block into L2, spilling the victim into the LLC.
func (l *l2Ctl) fill(block uint64, dirty bool, at sim.Time) {
	v, ok := l.c.Insert(block, dirty, addr.KindData)
	if !ok {
		return
	}
	l.spillVictim(v)
}

// spillVictim routes an evicted L2 line: counters just account uselessness
// (the LLC keeps its own copy path), data travels to its home slice as a
// packed victim message (block<<1|dirty) — synchronously during warmup.
func (l *l2Ctl) spillVictim(v cache.Victim) {
	if v.Kind == addr.KindCounter {
		if !v.WasUsed {
			*l.cUseless++
		}
		return
	}
	s := l.s
	j := s.mesh.SliceIndexOf(v.Block)
	if s.warming {
		s.slices[j].insert(v.Block, v.Dirty, v.Kind)
		return
	}
	p := v.Block << 1
	if v.Dirty {
		p |= 1
	}
	g := s.slices[j]
	l.toSlice[j].send(s.eng.Now()+s.oneway(l.tile, g.tile), g.insertDataCB, s.box(p))
}

// invalidateCounter handles an MC counter-update invalidation (Fig 23).
func (l *l2Ctl) invalidateCounter(cb uint64) {
	if v, ok := l.c.Invalidate(cb); ok {
		*l.cInvalidations++
		if !v.WasUsed {
			*l.cUseless++
		}
	}
}
