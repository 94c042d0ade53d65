package sim

// This file is the engine's event queue: a monomorphic four-ary min-heap
// ordered by (time, priority class, key, seq). It replaces the original
// container/heap binary heap, which paid an interface-boxing allocation on
// every Push(x interface{}) plus dynamic dispatch for every Less/Swap. The
// four-ary layout was chosen by benchmark (see DESIGN.md §11 and
// BENCH_5.json): sift-down does ~half the levels of a binary heap, the four
// children share a cache line pair, and the monomorphic sift loops inline —
// together better than 2x on the engine tick benchmark.
//
// The heap itself holds no pointers. Each entry carries only the ordering
// key and the index of its callback in a slab beside the heap, so a sift
// step moves 24 bytes and the garbage collector's write barrier never fires
// inside the heap: with pointer-holding entries, every move made during a
// GC cycle paid a bulk barrier. The slab holds the callbacks; a slot is
// written once at push, zeroed at pop and recycled through a free list.
//
// The order is total and strict, so pop order does not depend on heap
// shape. Ordinary events (pri 0, key 0) pop in exactly the old heap's
// order: FIFO among equal timestamps, carried by seq alone — the parity
// test in queue_test.go pins this against a container/heap reference.
// Late-class events (AtCallLate) sort after them; see entry.

// entry is one scheduled event's place in the heap. prio packs the late
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
// never compare equal and pop order is independent of heap shape.
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

// arity is the heap's branching factor. Children of node i live at
// arity*i+1 .. arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

// eventQueue is the min-heap. The zero value is an empty queue. The heap,
// the slab and the free list grow to the simulation's high-water mark and
// are then reused forever: push/pop are allocation-free in steady state.
type eventQueue struct {
	heap []entry
	slab []callback
	free []uint32 // slab slots not in use
}

func (q *eventQueue) len() int { return len(q.heap) }

// peek returns the minimum entry without removing it. The pointer is only
// valid until the next push or pop. Callers must check len() > 0 first.
func (q *eventQueue) peek() *entry { return &q.heap[0] }

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
	}
	e := entry{at: at, seq: seq, prio: prio, slot: slot}
	q.heap = append(q.heap, e)
	// Inlined sift-up with a moving hole: the new entry is only written
	// once, at its final position.
	h := q.heap
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

// pop removes the minimum entry and returns it with its callback. The
// callback's slab slot is zeroed, so the slab does not retain the
// callback and argument past the event's execution, and then freed.
func (q *eventQueue) pop() (entry, callback) {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	e := h[n]
	// Reslicing the field in place writes only its length, so no write
	// barrier fires; the sift below indexes h below n.
	q.heap = q.heap[:n]
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
	cb := q.slab[top.slot]
	q.slab[top.slot] = callback{}
	q.free = append(q.free, top.slot)
	return top, cb
}
