package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// chromeWriter streams Chrome/Perfetto trace_event JSON. Events are
// emitted as each request retires, so memory stays bounded no matter how
// long the run is; only the per-core lane-name metadata (a handful of
// entries) is retained.
//
// Layout: each simulated core is a Chrome "process"; each in-flight
// request occupies a lane of two "threads" — a data-path thread and a
// crypto-path thread — so the EMCC overlap between the block's journey and
// its counter/AES work is directly visible as parallel bars. Time-series
// samples land on a dedicated sampler process as counter ("C") events.
//
// Timestamps: trace_event "ts"/"dur" are microseconds; simulated time is
// picoseconds, so values are written with 6 decimal places, which is exact
// (1 ps = 1e-6 µs) and keeps the stream byte-deterministic.
type chromeWriter struct {
	w     *bufio.Writer
	first bool
	named map[string]bool // emitted thread/process metadata, keyed pid/tid
	err   error
}

const samplerPID = 0 // counter track; cores are pid 1+core

func newChromeWriter(w io.Writer, meta map[string]string) *chromeWriter {
	cw := &chromeWriter{w: bufio.NewWriterSize(w, 64<<10), first: true, named: make(map[string]bool)}
	cw.header(meta)
	return cw
}

func (c *chromeWriter) header(meta map[string]string) {
	c.raw(`{"displayTimeUnit":"ns","otherData":{`)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			c.raw(",")
		}
		c.raw(fmt.Sprintf("%s:%s", strconv.Quote(k), strconv.Quote(meta[k])))
	}
	c.raw(`},"traceEvents":[`)
}

func (c *chromeWriter) raw(s string) {
	if c.err != nil {
		return
	}
	_, c.err = c.w.WriteString(s)
}

// event writes one comma-separated JSON object into traceEvents.
func (c *chromeWriter) event(s string) {
	if c.first {
		c.first = false
	} else {
		c.raw(",")
	}
	c.raw("\n")
	c.raw(s)
}

// usec renders a picosecond Time as a microsecond JSON number, exactly.
func usec(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%06d", neg, t/sim.Microsecond, t%sim.Microsecond)
}

// nsec renders a picosecond Time as a nanosecond JSON number, exactly.
func nsec(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, t/sim.Nanosecond, t%sim.Nanosecond)
}

// ensureNamed lazily emits process/thread metadata the first time a track
// is used, so only touched tracks appear and the stream stays append-only.
func (c *chromeWriter) ensureNamed(pid, tid int, pname, tname string) {
	pk := "p" + strconv.Itoa(pid)
	if !c.named[pk] {
		c.named[pk] = true
		c.event(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`, pid, strconv.Quote(pname)))
	}
	if tid < 0 {
		return
	}
	tk := pk + "t" + strconv.Itoa(tid)
	if !c.named[tk] {
		c.named[tk] = true
		c.event(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`, pid, tid, strconv.Quote(tname)))
	}
}

// writeReq streams all spans of one finished request as "X" complete
// events: data-lane spans on tid 2*lane+1, crypto-lane spans on 2*lane+2.
func (c *chromeWriter) writeReq(r *Req) {
	pid := 1 + r.Core
	dataTid := 2*r.lane + 1
	cryptoTid := 2*r.lane + 2
	pname := fmt.Sprintf("core %d", r.Core)
	c.ensureNamed(pid, dataTid, pname, fmt.Sprintf("req lane %d data", r.lane))

	kind := "load"
	if r.Store {
		kind = "store"
	}
	// One umbrella span naming the request, then each attributed segment.
	c.event(fmt.Sprintf(
		`{"name":"%s 0x%x","cat":"req","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"id":%d,"llc-miss":%t,"offload":%t,"merged":%t,"ctr":%q,"decrypt":%q,"exposed-ns":%s}}`,
		kind, r.Block, usec(r.Start), usec(r.End-r.Start), pid, dataTid,
		r.ID, r.LLCMiss, r.Offload, r.Merged, r.CtrSrc.String(), r.Decrypt.String(), nsec(r.Exposed)))
	for _, sp := range r.Spans {
		tid := dataTid
		if sp.Seg.cryptoLane() {
			tid = cryptoTid
			c.ensureNamed(pid, cryptoTid, pname, fmt.Sprintf("req lane %d crypto", r.lane))
		}
		c.event(fmt.Sprintf(`{"name":%s,"cat":"seg","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"id":%d}}`,
			strconv.Quote(sp.Seg.String()), usec(sp.Start), usec(sp.End-sp.Start), pid, tid, r.ID))
	}
}

// writeCounter streams one time-series sample as a "C" counter event.
func (c *chromeWriter) writeCounter(name string, at sim.Time, v float64) {
	c.ensureNamed(samplerPID, -1, "samplers", "")
	c.event(fmt.Sprintf(`{"name":%s,"ph":"C","ts":%s,"pid":%d,"args":{"value":%s}}`,
		strconv.Quote(name), usec(at), samplerPID, strconv.FormatFloat(v, 'g', -1, 64)))
}

// writeInstant streams a named instantaneous event on a core's track.
func (c *chromeWriter) writeInstant(name string, core int, at sim.Time) {
	pid := 1 + core
	c.ensureNamed(pid, 0, fmt.Sprintf("core %d", core), "events")
	c.event(fmt.Sprintf(`{"name":%s,"ph":"i","s":"p","ts":%s,"pid":%d,"tid":0}`,
		strconv.Quote(name), usec(at), pid))
}

func (c *chromeWriter) close() error {
	c.raw("\n]}\n")
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}
