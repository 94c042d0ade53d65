// Package obs is the per-request critical-path tracing subsystem. The
// timing simulator threads one *Req context through every memory request
// that misses L1; components (core, L2, LLC, MC, DRAM, AES pools) annotate
// segment boundaries on it, and the tracer attributes the request's total
// latency to pipeline segments — including the cycles where decryption was
// *exposed* on the critical path versus hidden behind the data block's
// DRAM→MC→LLC→L2 journey, the paper's central latency-overlap argument.
//
// Two sinks run behind one tracer:
//
//   - an in-memory aggregator feeding per-segment stats.Set accumulators
//     ("obs/seg/<name>-ns", stats.ObsExposedDecryptNS, …) plus a bounded
//     top-N slowest-request table, and
//   - an optional streaming Chrome/Perfetto trace_event JSON writer
//     (chrome.go) with bounded memory: events leave the process as each
//     request retires.
//
// Tracing is zero-overhead when disabled: every method is safe on a nil
// *Tracer / nil *Req receiver, so instrumentation sites cost one
// predictable nil check and no allocation — the same discipline as
// internal/inv's atomic gate. Enabled runs are deterministic: the same
// seed produces a byte-identical trace stream.
package obs

import (
	"io"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Segment labels one pipeline stage of a memory request. The data-path
// segments (L1 … NoCResp) are sequential along the block's journey; the
// crypto-path segments (CtrProbeL2 … Exposed) run on a parallel lane that
// overlaps the data path under EMCC — the Chrome writer renders the two
// lanes as separate threads so the overlap is visible.
type Segment uint8

// The segment taxonomy (see DESIGN.md §8).
const (
	// SegL1 is L1 lookup plus miss handling before the request reaches L2.
	SegL1 Segment = iota
	// SegL2Lookup is the L2 tag lookup ending at miss detection.
	SegL2Lookup
	// SegNoCReq is the L2→LLC-slice request traversal.
	SegNoCReq
	// SegLLCProbe is the LLC slice access (tag only on miss, tag+data on hit).
	SegLLCProbe
	// SegNoCToMC is the LLC→MC (or L2→MC under XPT) traversal.
	SegNoCToMC
	// SegMCQueue is time spent waiting at the MC before the DRAM enqueue
	// succeeds (overflow blocking, full queues).
	SegMCQueue
	// SegDRAMQueue is the DRAM channel queue delay (enqueue→issue).
	SegDRAMQueue
	// SegDRAMService is the bank access plus data-bus burst (issue→pins).
	SegDRAMService
	// SegNoCResp is the response traversal back to the requesting L2.
	SegNoCResp
	// SegCtrProbeL2 is EMCC's serial counter lookup in L2 spare cycles.
	SegCtrProbeL2
	// SegCtrFetch is the counter resolution wait: LLC speculative fetch,
	// or the MC's counter-cache/LLC/DRAM walk with verification, ending
	// when the counter is decoded and usable.
	SegCtrFetch
	// SegAESQueue is the AES pool queue delay before the OTP ops issue.
	SegAESQueue
	// SegAESCompute is the AES computation itself.
	SegAESCompute
	// SegExposed is the decrypt/verify time left on the critical path
	// after the ciphertext arrived — the cycles EMCC exists to hide.
	SegExposed
	// SegBipBipCipher is the fixed tweakable-cipher latency charged at the
	// cache controller under CtrBipBip (counter-free, always exposed).
	SegBipBipCipher
	// SegInSRAMCipher is the in-SRAM AES pass at the MC under CtrInSRAM:
	// queue plus geometry-derived compute, starting at ciphertext arrival.
	SegInSRAMCipher
	numSegments
)

var segNames = [numSegments]string{
	"l1", "l2-lookup", "noc-req", "llc-probe", "noc-to-mc", "mc-queue",
	"dram-queue", "dram-service", "noc-resp", "ctr-probe-l2", "ctr-fetch",
	"aes-queue", "aes-compute", "exposed-decrypt", "bipbip-cipher",
	"insram-cipher",
}

// segKeys holds the per-segment accumulator names ("obs/seg/<name>-ns"),
// a dynamic key family that stays out of the central registry: the
// segment taxonomy is this package's own vocabulary and the only readers
// (report.go) index the same table.
var segKeys = func() (k [numSegments]string) {
	for i, n := range segNames {
		k[i] = "obs/seg/" + n + "-ns"
	}
	return
}()

// SegStatKey reports the stats accumulator name a segment aggregates
// under ("obs/seg/<name>-ns") — internal/check reads the per-segment
// accounting through it to prove the counter lane stays silent for the
// counter-free designs.
func SegStatKey(s Segment) string { return segKeys[s] }

// segHistKeys holds the per-segment latency-histogram names
// ("obs/hist/seg/<name>-ns"), the distribution companion of segKeys and
// the same kind of dynamic family: out of the central registry, indexed
// only through this table.
var segHistKeys = func() (k [numSegments]string) {
	for i, n := range segNames {
		k[i] = "obs/hist/seg/" + n + "-ns"
	}
	return
}()

// SegHistKey reports the latency-histogram name a segment records into
// ("obs/hist/seg/<name>-ns") — the figures/report layers read per-segment
// p50/p95/p99 through it.
func SegHistKey(s Segment) string { return segHistKeys[s] }

// ctrSrcKeys and decryptKeys map the enum classifications to their
// registered aggregate keys. CtrUnknown/DecNone never reach the sink:
// aggregate() guards on them.
var (
	ctrSrcKeys  = [...]string{CtrAtL2: stats.ObsCtrSrcL2, CtrAtLLC: stats.ObsCtrSrcLLC, CtrAtMC: stats.ObsCtrSrcMC}
	decryptKeys = [...]string{DecAtL2: stats.ObsDecryptAtL2, DecAtMC: stats.ObsDecryptAtMC}
)

// String implements fmt.Stringer.
func (s Segment) String() string {
	if int(s) < len(segNames) {
		return segNames[s]
	}
	return "segment?"
}

// cryptoLane reports whether the segment belongs to the counter/crypto
// lane (rendered as its own thread, overlapping the data lane).
func (s Segment) cryptoLane() bool { return s >= SegCtrProbeL2 }

// Segments enumerates the full taxonomy in pipeline order (report tooling).
func Segments() []Segment {
	out := make([]Segment, numSegments)
	for i := range out {
		out[i] = Segment(i)
	}
	return out
}

// Span is one attributed interval of a request's lifetime.
type Span struct {
	Seg        Segment
	Start, End sim.Time
}

// CtrSource classifies where a request's counter was found.
type CtrSource uint8

// Counter sources, in increasing distance from the core.
const (
	CtrUnknown CtrSource = iota
	CtrAtL2
	CtrAtLLC
	CtrAtMC
)

// String implements fmt.Stringer.
func (c CtrSource) String() string {
	switch c {
	case CtrAtL2:
		return "l2"
	case CtrAtLLC:
		return "llc"
	case CtrAtMC:
		return "mc"
	}
	return "-"
}

// DecryptSite classifies where a DRAM fill was decrypted and verified.
type DecryptSite uint8

// Decrypt sites.
const (
	DecNone DecryptSite = iota
	DecAtL2
	DecAtMC
)

// String implements fmt.Stringer.
func (d DecryptSite) String() string {
	switch d {
	case DecAtL2:
		return "l2"
	case DecAtMC:
		return "mc"
	}
	return "-"
}

// noOpen marks a segment with no span currently open.
const noOpen = sim.Time(-1)

// Req is one traced memory request. All methods are nil-safe so the
// disabled-tracer path costs a single branch per call site.
type Req struct {
	t *Tracer

	// ID is the per-tracer request sequence number (1-based).
	ID    uint64
	Core  int
	Block uint64
	Store bool

	Start, End sim.Time
	Spans      []Span

	// Flags describing the path the request took.
	LLCMiss bool
	Offload bool
	Merged  bool
	CtrSrc  CtrSource
	Decrypt DecryptSite
	// Exposed is the decrypt/verify latency left on the critical path
	// after the ciphertext was available (SegExposed duration).
	Exposed sim.Time

	open [numSegments]sim.Time
	lane int  // chrome lane slot, -1 when no chrome sink
	done bool // Finish ran; late annotations are ignored

	// nextFree links retired requests into the tracer's freelist so the
	// steady-state traced hot path allocates nothing (the Spans backing
	// array is reused too). Only requests retained in the top-N table
	// stay out of the pool.
	nextFree *Req
}

// Span records a closed interval attributed to seg. Zero- or negative-
// length spans are dropped: they carry no latency and would only bloat the
// trace stream.
func (r *Req) AddSpan(seg Segment, start, end sim.Time) {
	if r == nil || r.done || end <= start {
		return
	}
	r.Spans = append(r.Spans, Span{Seg: seg, Start: start, End: end})
}

// Begin opens a span of seg at time at. If a span of the same segment is
// already open the earlier start wins (retry loops re-enter their site).
func (r *Req) Begin(seg Segment, at sim.Time) {
	if r == nil || r.done || r.open[seg] != noOpen {
		return
	}
	r.open[seg] = at
}

// Commit closes the open span of seg at time at. Without a matching Begin
// it is a no-op.
func (r *Req) Commit(seg Segment, at sim.Time) {
	if r == nil || r.done || r.open[seg] == noOpen {
		return
	}
	r.AddSpan(seg, r.open[seg], at)
	r.open[seg] = noOpen
}

// MarkLLCMiss flags that the data access missed in LLC.
func (r *Req) MarkLLCMiss() {
	if r != nil {
		r.LLCMiss = true
	}
}

// MarkOffload flags that the miss carried the adaptive-offload bit.
func (r *Req) MarkOffload() {
	if r != nil {
		r.Offload = true
	}
}

// MarkMerged flags an MSHR-merged request (it rode another miss's path; it
// carries only its L1 span and total latency).
func (r *Req) MarkMerged() {
	if r != nil {
		r.Merged = true
	}
}

// MarkCtr records where the counter was found.
func (r *Req) MarkCtr(src CtrSource) {
	if r != nil && !r.done && r.CtrSrc == CtrUnknown {
		r.CtrSrc = src
	}
}

// MarkDecrypt records where the fill was decrypted and how many
// picoseconds of crypto were exposed on the critical path, and attributes
// the exposed interval [cipherAt, done].
func (r *Req) MarkDecrypt(site DecryptSite, cipherAt, done sim.Time) {
	if r == nil || r.done {
		return
	}
	r.Decrypt = site
	r.Exposed = done - cipherAt
	r.AddSpan(SegExposed, cipherAt, done)
}

// Latency reports the request's total traced latency.
func (r *Req) Latency() sim.Time {
	if r == nil {
		return 0
	}
	return r.End - r.Start
}

// SegTotal sums the closed spans attributed to seg.
func (r *Req) SegTotal(seg Segment) sim.Time {
	if r == nil {
		return 0
	}
	var d sim.Time
	for _, sp := range r.Spans {
		if sp.Seg == seg {
			d += sp.End - sp.Start
		}
	}
	return d
}

// cryptoDur sums the counter/crypto-lane work excluding the exposed span
// (which is the part of that work that was NOT hidden).
func (r *Req) cryptoDur() sim.Time {
	var d sim.Time
	for _, sp := range r.Spans {
		if sp.Seg.cryptoLane() && sp.Seg != SegExposed {
			d += sp.End - sp.Start
		}
	}
	return d
}

// Finish closes the request at time at, feeds the aggregate sink, streams
// the Chrome events and releases the lane. Safe on nil. Spans are clamped
// to the request's lifetime first: speculative crypto work (an EMCC
// counter fetch or AES keystream reserved with a future completion) can
// outlive the request when its data was served on-chip — that tail is
// prefetch for later misses, not this request's critical path. Further
// annotations after Finish are ignored for the same reason.
func (r *Req) Finish(at sim.Time) {
	if r == nil || r.done {
		return
	}
	r.done = true
	r.End = at
	kept := r.Spans[:0]
	for _, sp := range r.Spans {
		if sp.Start >= at {
			continue
		}
		if sp.End > at {
			sp.End = at
		}
		kept = append(kept, sp)
	}
	r.Spans = kept
	r.t.endReq(r)
}

// Options configures a Tracer. The zero value aggregates into nothing; set
// Stats and/or Writer to attach sinks.
type Options struct {
	// Stats receives the aggregate per-segment metrics. May be nil.
	Stats *stats.Set
	// Writer receives the streaming Chrome trace_event JSON. May be nil.
	Writer io.Writer
	// Sample traces every Nth started request (default 1 = all). Sampling
	// is deterministic: it counts request starts, not wall time.
	Sample uint64
	// TopN bounds the slowest-requests table (default 10).
	TopN int
	// SamplePeriod enables periodic time-series sampling (queue depths,
	// MSHR occupancy, AES utilisation) at this simulated interval when
	// positive.
	SamplePeriod sim.Time
	// Meta is written into the Chrome file's otherData block (run
	// provenance). Keys are emitted sorted, so fixed metadata keeps the
	// stream deterministic.
	Meta map[string]string
}

// Tracer owns the sinks and hands out request contexts. All methods are
// nil-safe; a nil *Tracer is the disabled state.
type Tracer struct {
	st     *stats.Set
	cw     *chromeWriter
	sample uint64
	period sim.Time

	started uint64 // requests seen (sampling counter)
	traced  uint64 // requests actually traced

	topN int
	top  []*Req // sorted by latency, longest first

	lanes laneAlloc

	// freeReq heads the retired-request pool (see Req.nextFree).
	freeReq *Req

	// hists caches the latency-histogram cells of the stats sink, bound
	// once in New (the cells survive a stats Reset).
	hists struct {
		seg     [numSegments]*metrics.Hist
		latency *metrics.Hist
		exposed *metrics.Hist
	}
}

// New builds a tracer. Returns a ready tracer even with no sinks (the
// aggregate counters on Summary still work).
func New(o Options) *Tracer {
	if o.Sample == 0 {
		o.Sample = 1
	}
	if o.TopN == 0 {
		o.TopN = 10
	}
	t := &Tracer{st: o.Stats, sample: o.Sample, period: o.SamplePeriod, topN: o.TopN}
	// One spare slot so keepTopN's insert-then-truncate never reallocates.
	t.top = make([]*Req, 0, o.TopN+1)
	if o.Stats != nil {
		t.bindHists()
	}
	if o.Writer != nil {
		t.cw = newChromeWriter(o.Writer, o.Meta)
	}
	return t
}

// Enabled reports whether t is non-nil (instrumentation convenience).
func (t *Tracer) Enabled() bool { return t != nil }

// SamplePeriod reports the configured time-series sampling interval
// (zero = off, or tracer disabled).
func (t *Tracer) SamplePeriod() sim.Time {
	if t == nil {
		return 0
	}
	return t.period
}

// StartReq begins tracing one memory request at time at. Returns nil when
// the tracer is disabled or the request is sampled out; every downstream
// annotation is nil-safe, so callers never branch again.
func (t *Tracer) StartReq(core int, block uint64, store bool, at sim.Time) *Req {
	if t == nil {
		return nil
	}
	t.started++
	if t.started%t.sample != 0 {
		return nil
	}
	t.traced++
	r := t.freeReq
	if r == nil {
		r = &Req{}
	} else {
		t.freeReq = r.nextFree
	}
	*r = Req{t: t, ID: t.traced, Core: core, Block: block, Store: store, Start: at, lane: -1, Spans: r.Spans[:0]}
	for i := range r.open {
		r.open[i] = noOpen
	}
	if t.cw != nil {
		r.lane = t.lanes.acquire(core)
	}
	return r
}

// endReq is the single drain point: aggregate, stream, retire the lane,
// and recycle the request unless the top-N table retains it (in which
// case whatever it evicted is recycled instead).
func (t *Tracer) endReq(r *Req) {
	if t == nil {
		return
	}
	if t.st != nil {
		t.aggregate(r)
	}
	if t.cw != nil {
		t.cw.writeReq(r)
		t.lanes.release(r.Core, r.lane)
	}
	evicted, kept := t.keepTopN(r)
	if !kept {
		t.recycle(r)
	} else if evicted != nil {
		t.recycle(evicted)
	}
}

// recycle returns a retired request to the freelist.
func (t *Tracer) recycle(r *Req) {
	r.nextFree = t.freeReq
	t.freeReq = r
}

// bindHists binds the latency-histogram cells of the stats sink.
func (t *Tracer) bindHists() {
	st := t.st
	for i := range segHistKeys {
		t.hists.seg[i] = st.HistRef(segHistKeys[i]) //lint:dynamic-key per-segment family obs/hist/seg/<name>-ns
	}
	t.hists.latency = st.HistRef(stats.ObsReqLatencyHist)
	t.hists.exposed = st.HistRef(stats.ObsExposedDecryptHist)
}

// aggregate feeds the stats sink with this request's attribution.
func (t *Tracer) aggregate(r *Req) {
	st := t.st
	st.Inc(stats.ObsReqTraced)
	if r.Store {
		st.Inc(stats.ObsReqStore)
	}
	if r.Merged {
		st.Inc(stats.ObsReqMerged)
	}
	if r.LLCMiss {
		st.Inc(stats.ObsReqLLCMiss)
	}
	if r.Offload {
		st.Inc(stats.ObsReqOffload)
	}
	st.Observe(stats.ObsReqLatencyNS, r.Latency().Nanoseconds())
	t.hists.latency.Observe(int64(r.Latency()) / 1000)
	for _, sp := range r.Spans {
		st.Observe(segKeys[sp.Seg], (sp.End - sp.Start).Nanoseconds()) //lint:dynamic-key per-segment family obs/seg/<name>-ns
		t.hists.seg[sp.Seg].Observe(int64(sp.End-sp.Start) / 1000)
	}
	if r.CtrSrc != CtrUnknown {
		st.Inc(ctrSrcKeys[r.CtrSrc]) //lint:dynamic-key selected from the registered ctrSrcKeys table
	}
	if r.Decrypt != DecNone {
		st.Inc(decryptKeys[r.Decrypt]) //lint:dynamic-key selected from the registered decryptKeys table
		st.Observe(stats.ObsExposedDecryptNS, r.Exposed.Nanoseconds())
		t.hists.exposed.Observe(int64(r.Exposed) / 1000)
		// Overlapped = crypto-lane work that did NOT extend the critical
		// path: counter resolution + AES minus what stayed exposed.
		over := r.cryptoDur() - r.Exposed
		if over < 0 {
			over = 0
		}
		st.Observe(stats.ObsOverlappedDecryptNS, over.Nanoseconds())
	}
}

// keepTopN maintains the bounded slowest-requests table. It reports
// whether r was retained, and the request it displaced (if any) so the
// caller can recycle exactly the one reference that fell out of the
// table.
func (t *Tracer) keepTopN(r *Req) (evicted *Req, kept bool) {
	if t.topN <= 0 {
		return nil, false
	}
	lat := r.Latency()
	if len(t.top) == t.topN && lat <= t.top[len(t.top)-1].Latency() {
		return nil, false
	}
	// Insert in descending-latency order (stable on ties by ID: earlier
	// request wins, keeping the table deterministic).
	i := len(t.top)
	for i > 0 {
		p := t.top[i-1]
		if p.Latency() > lat || (p.Latency() == lat && p.ID < r.ID) {
			break
		}
		i--
	}
	t.top = append(t.top, nil)
	copy(t.top[i+1:], t.top[i:])
	t.top[i] = r
	if len(t.top) > t.topN {
		evicted = t.top[len(t.top)-1]
		t.top = t.top[:t.topN]
	}
	return evicted, true
}

// TopRequests returns the slowest traced requests, longest first.
func (t *Tracer) TopRequests() []*Req {
	if t == nil {
		return nil
	}
	return append([]*Req(nil), t.top...)
}

// Traced reports how many requests were traced (after sampling).
func (t *Tracer) Traced() uint64 {
	if t == nil {
		return 0
	}
	return t.traced
}

// Sample records one time-series sample: a named instantaneous gauge
// (queue depth, occupancy, utilisation). Values land in the stats sink as
// "obs/sample/<name>" accumulators and in the Chrome stream as counter
// ("C") events plotted over simulated time.
func (t *Tracer) Sample(name string, at sim.Time, v float64) {
	if t == nil {
		return
	}
	if t.st != nil {
		t.st.Observe("obs/sample/"+name, v) //lint:dynamic-key caller-named gauge family obs/sample/<name>
	}
	if t.cw != nil {
		t.cw.writeCounter(name, at, v)
	}
}

// Instant records a named instantaneous event on a core's track (phase
// transitions, invalidations) and counts it in the stats sink.
func (t *Tracer) Instant(name string, core int, at sim.Time) {
	if t == nil {
		return
	}
	if t.st != nil {
		t.st.Inc("obs/event/" + name) //lint:dynamic-key caller-named event family obs/event/<name>
	}
	if t.cw != nil {
		t.cw.writeInstant(name, core, at)
	}
}

// Flow records one functional-simulator miss classification: fsim has no
// clock, so seq (the reference index) stands in for time and the event
// carries only the path the miss took.
func (t *Tracer) Flow(core int, block uint64, write, llcMiss bool, seq int64) {
	if t == nil {
		return
	}
	if t.st != nil {
		t.st.Inc(stats.ObsFlowL2Miss)
		if llcMiss {
			t.st.Inc(stats.ObsFlowLLCMiss)
		}
	}
	if t.cw != nil {
		t.cw.writeFlow(core, block, write, llcMiss, seq)
	}
}

// Close flushes and finalises the Chrome stream (no-op without one).
func (t *Tracer) Close() error {
	if t == nil || t.cw == nil {
		return nil
	}
	return t.cw.close()
}

// laneAlloc hands out per-core lane slots so concurrent requests of one
// core render on distinct Chrome thread pairs. Slots are reused in lowest-
// free order, which is deterministic.
type laneAlloc struct {
	used map[int][]bool // core -> slot occupancy
}

func (l *laneAlloc) acquire(core int) int {
	if l.used == nil {
		l.used = make(map[int][]bool)
	}
	slots := l.used[core]
	for i, inUse := range slots {
		if !inUse {
			slots[i] = true
			return i
		}
	}
	l.used[core] = append(slots, true)
	return len(slots)
}

func (l *laneAlloc) release(core, slot int) {
	if slot < 0 || l.used == nil {
		return
	}
	if slots := l.used[core]; slot < len(slots) {
		slots[slot] = false
	}
}
