package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// ---- container/heap reference (the pre-overhaul scheduler) ----
//
// legacyHeap replicates the original binary-heap scheduler exactly: the
// same (at, seq) Less and the container/heap sift algorithms. The parity
// tests below drive it and the calendar queue with identical schedules
// and require identical pop orders.

type legacyEvent struct {
	at  Time
	seq uint64
	id  int
}

type legacyHeap []legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(legacyEvent)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestQueueParityWithLegacyHeap drives randomized interleavings of pushes
// and pops through the calendar queue and the container/heap reference
// and requires byte-identical pop sequences — the determinism guarantee
// the scheduler swap must preserve.
func TestQueueParityWithLegacyHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref legacyHeap
		var seq uint64
		id := 0
		// Odd seeds push within one bucket; even seeds spread the same
		// draws over 490 ns, past the ring's horizon. Pushes here ignore
		// the last pop's time, so some land before the ring's base.
		scale := Time(1)
		if seed%2 == 0 {
			scale = 10 * Nanosecond
		}
		for op := 0; op < 4000; op++ {
			if q.len() == 0 || rng.Intn(3) != 0 {
				// Push with a small time range so equal timestamps are
				// common and the seq tie-break is exercised hard.
				at := Time(rng.Intn(50)) * scale
				seq++
				id++
				q.push(at, seq, 0, noteID, id)
				heap.Push(&ref, legacyEvent{at: at, seq: seq, id: id})
			} else {
				got, cb := q.pop()
				want := heap.Pop(&ref).(legacyEvent)
				if got.at != want.at || got.seq != want.seq || cb.arg != want.id {
					t.Fatalf("seed %d op %d: popped (at=%d seq=%d id=%v), reference popped (at=%d seq=%d id=%d)",
						seed, op, got.at, got.seq, cb.arg, want.at, want.seq, want.id)
				}
			}
		}
		for q.len() > 0 {
			got, cb := q.pop()
			want := heap.Pop(&ref).(legacyEvent)
			if got.at != want.at || got.seq != want.seq || cb.arg != want.id {
				t.Fatalf("seed %d drain: popped (at=%d seq=%d id=%v), reference popped (at=%d seq=%d id=%d)",
					seed, got.at, got.seq, cb.arg, want.at, want.seq, want.id)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference has %d events left after queue drained", seed, ref.Len())
		}
	}
}

// TestQueueFIFOAmongEqualTimestamps is the direct property: across
// randomized insert/pop interleavings, events sharing a timestamp pop in
// insertion order.
func TestQueueFIFOAmongEqualTimestamps(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var seq uint64
		lastSeqAt := map[Time]uint64{}
		var lastTime Time
		first := true
		for op := 0; op < 3000; op++ {
			if q.len() == 0 || rng.Intn(3) != 0 {
				// Engine contract: never schedule before the clock. A
				// tiny offset range forces heavy timestamp ties.
				at := lastTime + Time(rng.Intn(8))
				seq++
				q.push(at, seq, 0, noteID, nil)
			} else {
				e, _ := q.pop()
				if !first && e.at < lastTime {
					t.Fatalf("seed %d: time went backwards: %d after %d", seed, e.at, lastTime)
				}
				if prev, ok := lastSeqAt[e.at]; ok && e.seq <= prev {
					t.Fatalf("seed %d: tie-break not FIFO at t=%d: seq %d popped after %d", seed, e.at, e.seq, prev)
				}
				if e.at != lastTime {
					// A new timestamp opens a fresh FIFO window; older
					// windows can never be revisited.
					delete(lastSeqAt, lastTime)
				}
				lastSeqAt[e.at] = e.seq
				lastTime, first = e.at, false
			}
		}
	}
}

// TestEngineParityOldVsNew runs a randomized self-scheduling workload on
// the new engine and on a reference engine built over container/heap, and
// requires identical execution traces (time and event identity at every
// step). Events re-schedule follow-ups from inside callbacks, so the
// parity covers the engine loop, not just the queue. Odd seeds schedule
// within 19 ps; even seeds scale the same draws by 37 ns, so follow-ups
// land up to 333 ns ahead, past the ring's horizon, and the clock wraps
// the ring many times.
func TestEngineParityOldVsNew(t *testing.T) {
	type rec struct {
		at Time
		id int
	}
	run := func(seed int64, useLegacy bool) []rec {
		var trace []rec
		rng := rand.New(rand.NewSource(seed))
		scale := Time(1)
		if seed%2 == 0 {
			scale = 37 * Nanosecond
		}
		if useLegacy {
			var h legacyHeap
			var seq uint64
			now := Time(0)
			id := 0
			schedule := func(at Time) {
				seq++
				id++
				heap.Push(&h, legacyEvent{at: at, seq: seq, id: id})
			}
			for i := 0; i < 30; i++ {
				schedule(Time(rng.Intn(20)) * scale)
			}
			for h.Len() > 0 {
				e := heap.Pop(&h).(legacyEvent)
				now = e.at
				trace = append(trace, rec{e.at, e.id})
				if len(trace) < 3000 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(now + Time(rng.Intn(10))*scale)
					}
				}
			}
			return trace
		}
		e := New()
		id := 0
		var schedule func(at Time)
		schedule = func(at Time) {
			id++
			capturedID := id
			e.At(at, func() {
				trace = append(trace, rec{e.Now(), capturedID})
				if len(trace) < 3000 {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(e.Now() + Time(rng.Intn(10))*scale)
					}
				}
			})
		}
		for i := 0; i < 30; i++ {
			schedule(Time(rng.Intn(20)) * scale)
		}
		e.Run()
		return trace
	}
	for seed := int64(1); seed <= 10; seed++ {
		oldTrace := run(seed, true)
		newTrace := run(seed, false)
		if len(oldTrace) != len(newTrace) {
			t.Fatalf("seed %d: %d events on legacy, %d on new", seed, len(oldTrace), len(newTrace))
		}
		for i := range oldTrace {
			if oldTrace[i] != newTrace[i] {
				t.Fatalf("seed %d step %d: legacy ran (at=%d id=%d), new ran (at=%d id=%d)",
					seed, i, oldTrace[i].at, oldTrace[i].id, newTrace[i].at, newTrace[i].id)
			}
		}
	}
}

// tickState is the prebound-callback workload for the allocation tests:
// a tick re-arms period ps later while left > 0.
type tickState struct {
	eng    *Engine
	n      int
	left   int
	period Time
}

func tickCB(x any) {
	s := x.(*tickState)
	s.n++
	if s.left > 0 {
		s.left--
		s.eng.AfterCall(s.period, tickCB, s)
	}
}

// farAhead is past the ring's horizon: an event scheduled this far ahead
// goes to the far heap.
const farAhead = ringSlots<<bucketShift + 10

// TestAtCallZeroAllocsSteadyState pins the tentpole invariant: a
// steady-state scheduled event through the prebound API — schedule, pop,
// dispatch — allocates nothing once the queue's backing arrays have
// reached their high-water mark, whether the event lands in the ring or
// in the far heap.
func TestAtCallZeroAllocsSteadyState(t *testing.T) {
	e := New()
	s := &tickState{eng: e}
	// Warm the queue's backing arrays past any growth.
	for i := 0; i < 256; i++ {
		e.AtCall(e.Now()+Time(i), tickCB, s)
	}
	e.AtCall(e.Now()+farAhead, tickCB, s)
	if len(e.q.far) != 1 {
		t.Fatalf("an event %d ps ahead left %d events in the far heap, want 1", farAhead, len(e.q.far))
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtCall(e.Now()+10, tickCB, s)
		e.RunFor(10)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AtCall event allocated %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		e.AtCall(e.Now()+10, tickCB, s)
		e.AtCall(e.Now()+farAhead, tickCB, s)
		e.RunFor(farAhead)
	})
	if allocs != 0 {
		t.Fatalf("steady-state near and far AtCall events allocated %.1f times, want 0", allocs)
	}
}

// TestSelfReschedulingTickZeroAllocs covers the recurring-event shape the
// simulators use (an event that re-arms itself from inside its callback):
// the whole chain must be allocation-free, both for a tick that stays in
// the ring and for one that re-arms past its horizon.
func TestSelfReschedulingTickZeroAllocs(t *testing.T) {
	for _, period := range []Time{100, farAhead} {
		e := New()
		s := &tickState{eng: e, period: period}
		s.left = 64
		e.AfterCall(period, tickCB, s)
		e.Run() // warm
		allocs := testing.AllocsPerRun(100, func() {
			s.left = 50
			e.AfterCall(period, tickCB, s)
			e.Run()
		})
		if allocs != 0 {
			t.Fatalf("self-rescheduling tick chain every %d ps allocated %.1f times per run, want 0", period, allocs)
		}
	}
}

// TestAtCallRejectsPast mirrors the At contract for the prebound form.
func TestAtCallRejectsPast(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("AtCall in the past did not panic")
			}
		}()
		e.AtCall(50, tickCB, nil)
	})
	e.Run()
}

// TestPopReleasesReferences checks that pop zeroes the popped event's
// slab slot, so the slab does not pin callbacks or args after execution,
// and that a freed slot is reused before the slab grows.
func TestPopReleasesReferences(t *testing.T) {
	var q eventQueue
	q.push(1, 1, 0, tickCB, &tickState{})
	q.push(2, 2, lateClass|7, tickCB, &tickState{})
	q.pop()
	q.pop()
	if len(q.slab) != 2 || len(q.free) != 2 {
		t.Fatalf("slab %d slots, %d free after draining two events; want 2 and 2", len(q.slab), len(q.free))
	}
	for i, cb := range q.slab {
		if cb.fn != nil || cb.arg != nil {
			t.Fatalf("slab slot %d retains references after pop: %+v", i, cb)
		}
	}
	q.push(3, 3, 0, tickCB, &tickState{})
	if len(q.slab) != 2 || len(q.free) != 1 {
		t.Fatalf("push after pops grew the slab to %d slots (%d free); want a recycled slot", len(q.slab), len(q.free))
	}
}

// TestAtCallLateRejectsNegativeKey pins the key >= 0 contract the queue's
// (class, key) packing needs.
func TestAtCallLateRejectsNegativeKey(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("AtCallLate with a negative key did not panic")
		}
	}()
	e.AtCallLate(10, -1, tickCB, nil)
}

// ---- Sorted reference: the full (at, pri, key, seq) order ----
//
// The container/heap reference above knows only the ordinary class. The
// reference below keeps every pending event with its class and key as
// separate fields and pops the least under (at, pri, key, seq) by a
// linear scan, so it checks the queue's packed prio word too.

type refEvent struct {
	at  Time
	pri int
	key int32
	seq uint64
}

func (a refEvent) less(b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// queueOracle drives an eventQueue and the sorted reference in lockstep.
type queueOracle struct {
	t    *testing.T
	q    eventQueue
	ref  []refEvent
	seq  uint64
	now  Time // time of the last pop; pushes never go below it
	maxN int  // high-water mark of pending events
}

func (o *queueOracle) push(offset Time, late bool, key int32) {
	o.seq++
	ev := refEvent{at: o.now + offset, key: key, seq: o.seq}
	prio := uint32(0)
	if late {
		ev.pri = 1
		prio = lateClass | uint32(key)
	} else {
		ev.key = 0
	}
	o.q.push(ev.at, ev.seq, prio, noteID, ev.seq)
	o.ref = append(o.ref, ev)
	if len(o.ref) > o.maxN {
		o.maxN = len(o.ref)
	}
}

func (o *queueOracle) pop() {
	o.t.Helper()
	m := 0
	for i := range o.ref {
		if o.ref[i].less(o.ref[m]) {
			m = i
		}
	}
	want := o.ref[m]
	o.ref = append(o.ref[:m], o.ref[m+1:]...)
	got, cb := o.q.pop()
	// Each event's arg is its seq, so the callback must match too.
	if got.at != want.at || got.seq != want.seq || cb.arg != want.seq || cb.fn == nil {
		o.t.Fatalf("popped (at=%d seq=%d arg=%v), reference popped (at=%d pri=%d key=%d seq=%d)",
			got.at, got.seq, cb.arg, want.at, want.pri, want.key, want.seq)
	}
	o.now = got.at
}

// drain pops everything left and checks that the queue ends empty with
// every slab slot zeroed and free.
func (o *queueOracle) drain() {
	o.t.Helper()
	for len(o.ref) > 0 {
		o.pop()
	}
	if o.q.len() != 0 {
		o.t.Fatalf("queue holds %d events after the reference drained", o.q.len())
	}
	if len(o.q.slab) != o.maxN || len(o.q.free) != len(o.q.slab) {
		o.t.Fatalf("slab %d slots with %d free for a high-water mark of %d", len(o.q.slab), len(o.q.free), o.maxN)
	}
	for i, cb := range o.q.slab {
		if cb.fn != nil || cb.arg != nil {
			o.t.Fatalf("slab slot %d retains references after drain: %+v", i, cb)
		}
	}
}

// run decodes ops two bytes at a time: b0's low two bits 0 pop (when
// anything is pending), otherwise push at offset(b0) from the last pop's
// time, in the late class when b0's top bit is set, with key b1 (0xff
// stands for the largest key).
func (o *queueOracle) run(data []byte) {
	o.t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		if b0&3 == 0 {
			if len(o.ref) > 0 {
				o.pop()
			}
			continue
		}
		key := int32(b1)
		if b1 == 0xff {
			key = math.MaxInt32
		}
		o.push(o.offset(b0), b0&0x80 != 0, key)
	}
	o.drain()
}

// offset decodes a push's distance from the last pop's time: b0's bits
// 2-4 give a count c and bits 5-6 its scale.
//
//	0: c ps, so timestamp ties are common;
//	1: a bucket edge: the last ps of the current bucket or the first of
//	   a later one, up to four buckets ahead;
//	2: the first ps, the last, or a point a third or two thirds in, of
//	   the ring's last bucket (c < 4) or of the first bucket past its
//	   horizon;
//	3: c half-horizons and c ps, up to 3.5 horizons ahead: from c = 2 on
//	   past the horizon, in the far heap, and the ring has wrapped by
//	   the time such events pop.
//
// The ring's base is the last pop's bucket (pops never go back in time),
// so these land where the names say.
func (o *queueOracle) offset(b0 byte) Time {
	const width = Time(1) << bucketShift
	const horizon = ringSlots * width
	c := Time(b0 >> 2 & 7)
	bucket := o.now >> bucketShift
	var at Time
	switch b0 >> 5 & 3 {
	case 0:
		return c
	case 1:
		at = (bucket+1+c/2)*width - c&1
	case 2:
		at = (bucket+ringSlots-1+c/4)*width + c&3*(width-1)/3
	case 3:
		at = o.now + c*horizon/2 + c
	}
	return at - o.now
}

// TestQueueMatchesSortedReference drives randomized interleavings of
// ordinary and late-class pushes (random keys, some shared) and pops
// through the queue and the sorted reference: the late class must pop in
// (at, pri, key, seq) order, events in the ring and the far heap must
// interleave in that order, and every pop must return its own callback.
func TestQueueMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4000)
		rng.Read(data)
		// Some seeds draw keys from a narrow range so equal keys — and
		// with them the seq tie-break inside the late class — are common.
		if seed%2 == 0 {
			for i := 1; i < len(data); i += 2 {
				data[i] &= 3
			}
		}
		// Seeds 1-10 push within 7 ps of the last pop; 11-20 also reach
		// bucket edges, the horizon and the far heap (see offset).
		if seed <= 10 {
			for i := 0; i < len(data); i += 2 {
				data[i] &^= 0x60
			}
		}
		o := &queueOracle{t: t}
		o.run(data)
	}
}

// FuzzQueueMatchesReference is the fuzzing form of
// TestQueueMatchesSortedReference: any op sequence must pop in the sorted
// reference's order and leave the slab zeroed and free.
func FuzzQueueMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &queueOracle{t: t}
		o.run(data)
	})
}

// noteID is the callback the queue-level tests push; they identify events
// by arg and never run it.
func noteID(any) {}

// pop removes the least pending event, whenever it is due. The queue must
// not be empty.
func (q *eventQueue) pop() (entry, callback) {
	e, cb, ok := q.popUntil(maxTime)
	if !ok {
		panic("sim: pop from an empty queue")
	}
	return e, cb
}

// ---- Benchmarks: the numbers recorded in BENCH_5.json ----

// BenchmarkEngineTickPrebound is the post-overhaul hot path: a
// self-rescheduling prebound tick. Compare against
// BenchmarkEngineTickClosure and the legacy container/heap numbers in
// BENCH_5.json.
func BenchmarkEngineTickPrebound(b *testing.B) {
	b.ReportAllocs()
	e := New()
	s := &tickState{eng: e, left: b.N, period: 100}
	e.AfterCall(100, tickCB, s)
	e.Run()
}

// BenchmarkEngineTickClosure is the convenience-API equivalent, paying one
// closure allocation per event.
func BenchmarkEngineTickClosure(b *testing.B) {
	b.ReportAllocs()
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	e.Run()
}

// BenchmarkEngineMixedQueue holds 1024 ordinary events pending within
// 4 ns, with randomized offsets: 16 buckets of ~64 events each, so every
// push walks a long bucket list. It is the calendar queue's worst case
// among the engine benchmarks, far denser than the simulators run.
func BenchmarkEngineMixedQueue(b *testing.B) {
	b.ReportAllocs()
	e := New()
	s := &tickState{eng: e}
	r := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1024; i++ {
		r = r*6364136223846793005 + 1
		e.AtCall(Time(r%4096), tickCB, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = r*6364136223846793005 + 1
		e.AtCall(e.Now()+Time(r%4096)+1, tickCB, s)
		e.step(maxTime)
	}
}

// BenchmarkEngineQueueDepth32 holds 32 events pending, with the
// simulators' mix of events, rather than BenchmarkEngineMixedQueue's 1024
// ordinary ones. The mix was counted over e2ebench's verify units
// (check.Run, seeds 12 and 13, 2 k refs) and paper-pair units: pops find
// 17 and 25 events pending on average (at most 48 and 66), 54% and 61% of
// pushes are late-class, with ~290 distinct keys, 30% and 20% of pushes
// land on the current timestamp, and nearly all the others up to 64 ns
// ahead (DESIGN.md §11 has the histogram). Here nine pushes in sixteen
// are late-class, with one of 256 keys, one in four lands on the current
// timestamp, and the others land up to 16 ns ahead.
func BenchmarkEngineQueueDepth32(b *testing.B) {
	b.ReportAllocs()
	e := New()
	s := &tickState{eng: e}
	r := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 32+b.N; i++ {
		if i == 32 {
			b.ResetTimer()
		}
		r = r*6364136223846793005 + 1
		at := e.Now()
		if r>>62 != 0 {
			at += 1 + Time(r>>20%16384)
		}
		if r>>56%16 < 9 {
			e.AtCallLate(at, int32(r>>8%256), tickCB, s)
		} else {
			e.AtCall(at, tickCB, s)
		}
		if i >= 32 {
			e.step(maxTime)
		}
	}
}
