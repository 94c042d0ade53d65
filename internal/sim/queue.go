package sim

import "math/bits"

// This file is the engine's event queue: a calendar queue (Brown,
// "Calendar Queues", CACM 31(10), 1988) in front of a four-ary min-heap,
// both ordered by (time, priority class, key, seq).
//
// The calendar is a ring of ringSlots buckets, each 1<<bucketShift ps
// wide, so it covers a fixed horizon of ringSlots<<bucketShift ps from the
// ring's base bucket. Each bucket is a singly linked list kept sorted, and an
// occupancy bitmap with a summary word finds the earliest non-empty
// bucket in O(1). Almost every event the simulators schedule lands within
// the horizon (DESIGN.md §11 has the measured push deltas the constants
// are sized from); the rest — DRAM refresh, samplers, deep queues at many
// cores — go to the four-ary heap, which is kept only for them. A pop
// takes the earlier of the ring's first event and the heap's top, so the
// queue pops in exactly the order a single heap would.
//
// Nothing the lists, the bitmap or the heap hold is a pointer. List nodes
// live in one slab and link by index; each event carries only its
// ordering key and the index of its callback in a second slab, so linking
// a list or moving a heap entry never fires the garbage collector's write
// barrier. The callback slab is written once at push, zeroed at pop and
// recycled through a free list; a node shares its event's callback index.
//
// The order is total and strict, so pop order does not depend on which
// structure holds an event. Ordinary events (pri 0, key 0) pop FIFO among
// equal timestamps, carried by seq alone — the parity test in
// queue_test.go pins this against a container/heap reference. Late-class
// events (AtCallLate) sort after them; see entry.

// entry is one scheduled event's place in the queue. prio packs the late
// class: ordinary events carry pri 0 / key 0 and order exactly as before —
// by (at, seq). Late-class events (pri 1, scheduled with AtCallLate) sort
// after every ordinary event at the same timestamp, ordered among
// themselves by an explicit caller-chosen key instead of scheduling
// history. The DRAM model and tsim's entity seams schedule in the late
// class, so the order of their same-timestamp ties — and with it every
// golden — is a pure function of (time, key). Keys are non-negative, so
// pri<<31 | key compares as (pri, key).
type entry struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	prio uint32 // pri<<31 | key
	slot uint32 // index of the callback in eventQueue.slab
}

// lateClass is the prio bit of the late class.
const lateClass = 1 << 31

// before reports whether a orders strictly before b. (at, prio, seq) is a
// total strict order: seq is unique per engine, so two distinct events
// never compare equal and pop order is independent of queue shape.
func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// callback is one scheduled event's action: fn(arg). A package-level (or
// otherwise prebound) fn and a pointer-typed arg make scheduling
// allocation-free.
type callback struct {
	fn  func(any)
	arg any
}

// The ring's geometry. A bucket is 256 ps wide and the ring holds 1024 of
// them, a horizon of 262.144 ns: wide enough that 99.99% of the
// paper-pair runs' pushes land in the ring, narrow enough that a bucket
// rarely holds more than a few events (DESIGN.md §11).
const (
	bucketShift = 8 // a bucket is 1<<bucketShift ps wide
	ringSlots   = 1024
	ringMask    = ringSlots - 1
	ringWords   = ringSlots / 64
)

// arity is the far heap's branching factor. Children of node i live at
// arity*i+1 .. arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

// node is one event in a bucket's list. next is the slab index of the
// following node plus one, 0 at the list's tail.
type node struct {
	e    entry
	next uint32
}

// eventQueue is the calendar queue. The zero value is an empty queue
// whose ring starts at time 0. The node and callback slabs, the free list
// and the far heap grow to the simulation's high-water mark and are then
// reused forever: push and pop are allocation-free in steady state.
//
// Every event in the ring lies in buckets base .. base+ringSlots-1 (a
// bucket is at>>bucketShift), so bucket b sits in slot b&ringMask and a
// scan from base's slot meets the buckets in time order. base only moves
// forward, and only to a bucket no ring event precedes: a pop's own
// bucket, or the engine's clock once nothing is due before it (advance).
// Pushes outside that window go to the far heap.
type eventQueue struct {
	base    int64             // the ring's earliest bucket
	n       int               // events pending in the ring and the far heap
	heads   [ringSlots]uint32 // each bucket's first node, slab index+1; 0 when empty
	occ     [ringWords]uint64 // bit s set when bucket slot s is non-empty
	summary uint64            // bit w set when occ[w] != 0
	nodes   []node            // list nodes, indexed like slab
	far     []entry           // four-ary min-heap of the events outside the ring
	slab    []callback
	free    []uint32 // slab slots not in use
}

func (q *eventQueue) len() int { return q.n }

// push schedules fn(arg) at (at, prio, seq).
func (q *eventQueue) push(at Time, seq uint64, prio uint32, fn func(any), arg any) {
	var slot uint32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[slot] = callback{fn, arg}
	} else {
		slot = uint32(len(q.slab))
		q.slab = append(q.slab, callback{fn, arg})
		q.nodes = append(q.nodes, node{})
	}
	q.n++
	e := entry{at: at, seq: seq, prio: prio, slot: slot}
	b := int64(at >> bucketShift)
	if uint64(b-q.base) >= ringSlots {
		q.pushFar(e)
		return
	}
	s := uint32(b) & ringMask
	h := &q.heads[s]
	if *h == 0 {
		q.nodes[slot] = node{e: e}
		*h = slot + 1
		q.occ[s>>6] |= 1 << (s & 63)
		q.summary |= 1 << (s >> 6)
		return
	}
	// Walk to the first node the new event precedes; equal timestamps
	// walk past each other in (prio, seq) order, so FIFO holds.
	p := h
	for *p != 0 {
		n := &q.nodes[*p-1]
		if e.before(&n.e) {
			break
		}
		p = &n.next
	}
	q.nodes[slot] = node{e: e, next: *p}
	*p = slot + 1
}

// first returns the slot of the ring's earliest non-empty bucket: the
// first occupied slot at or after base's, wrapping. The ring must hold an
// event (summary != 0).
func (q *eventQueue) first() uint32 {
	s := uint32(q.base) & ringMask
	w := s >> 6
	if m := q.occ[w] >> (s & 63); m != 0 {
		return s + uint32(bits.TrailingZeros64(m))
	}
	// The later words, else wrap to the earliest word: with no bit at or
	// after s in word w, that word's low bits are the ring's last buckets.
	sum := q.summary &^ (2<<w - 1)
	if sum == 0 {
		sum = q.summary
	}
	// sum != 0, so the mask changes nothing; it lets the compiler drop
	// the bounds check.
	w = uint32(bits.TrailingZeros64(sum)) & (ringWords - 1)
	return w<<6 + uint32(bits.TrailingZeros64(q.occ[w]))
}

// popUntil removes the least pending event and returns it with its
// callback, if that event is due at or before t; otherwise, or when the
// queue is empty, it removes nothing and ok is false. The callback's slab
// slot is zeroed, so the slab does not retain the callback and argument
// past the event's execution, and then freed.
func (q *eventQueue) popUntil(t Time) (e entry, cb callback, ok bool) {
	var s uint32
	var n *node
	if q.summary != 0 {
		s = q.first()
		n = &q.nodes[q.heads[s]-1]
	}
	if n != nil && (len(q.far) == 0 || n.e.before(&q.far[0])) {
		if n.e.at > t {
			return entry{}, callback{}, false
		}
		e = n.e
		q.heads[s] = n.next
		if n.next == 0 {
			q.occ[s>>6] &^= 1 << (s & 63)
			if q.occ[s>>6] == 0 {
				q.summary &^= 1 << (s >> 6)
			}
		}
	} else if e, ok = q.popFar(t); !ok {
		return entry{}, callback{}, false
	}
	// Every event left orders after e, so none lies in an earlier bucket.
	if b := int64(e.at >> bucketShift); b > q.base {
		q.base = b
	}
	q.n--
	cb = q.slab[e.slot]
	q.slab[e.slot] = callback{}
	q.free = append(q.free, e.slot)
	return e, cb, true
}

// advance moves the ring's base up to t's bucket. The caller guarantees
// that no pending event is due at or before t, so no ring event lies in
// an earlier bucket; pushes from t on then land in the ring again.
func (q *eventQueue) advance(t Time) {
	if b := int64(t >> bucketShift); b > q.base {
		q.base = b
	}
}

// pushFar adds e to the far heap: a sift-up with a moving hole,
// so e is written once, at its final position.
func (q *eventQueue) pushFar(e entry) {
	q.far = append(q.far, e)
	h := q.far
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// popFar removes and returns the far heap's least entry if it is due at
// or before t.
func (q *eventQueue) popFar(t Time) (entry, bool) {
	h := q.far
	if len(h) == 0 || h[0].at > t {
		return entry{}, false
	}
	top := h[0]
	n := len(h) - 1
	e := h[n]
	// Reslicing the field in place writes only its length, so no write
	// barrier fires; the sift below indexes h below n.
	q.far = q.far[:n]
	if n > 0 {
		// Inlined sift-down of the former tail entry from the root.
		i := 0
		for {
			first := arity*i + 1
			if first >= n {
				break
			}
			m := first
			last := first + arity
			if last > n {
				last = n
			}
			for c := first + 1; c < last; c++ {
				if h[c].before(&h[m]) {
					m = c
				}
			}
			if !h[m].before(&e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	return top, true
}
