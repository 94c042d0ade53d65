package sim

// This file is the engine's event queue: a monomorphic four-ary min-heap
// ordered by (time, priority class, key, seq) operating directly on an
// []event. It replaces the original container/heap binary heap, which paid
// an interface-boxing allocation on every Push(x interface{}) plus dynamic
// dispatch for every Less/Swap. The four-ary layout was chosen by
// benchmark (see DESIGN.md §11 and BENCH_5.json): sift-down does ~half the
// levels of a binary heap, the four children share a cache line pair, and
// the monomorphic sift loops inline — together better than 2x on the
// engine tick benchmark.
//
// The order is total and strict, so pop order does not depend on heap
// shape. Ordinary events (pri 0, key 0) pop in exactly the old heap's
// order: FIFO among equal timestamps, carried by seq alone — the parity
// test in queue_test.go pins this against a container/heap reference.
// Late-class events (AtCallLate) sort after them; see the event type.

// event is one scheduled callback. Exactly one of fn and call is set: fn
// is the At/After closure form; call+arg is the allocation-free prebound
// form (AtCall/AfterCall) — with a package-level (or otherwise prebound)
// func and a pointer-typed arg, scheduling allocates nothing.
//
// pri and key form the late class. Ordinary events carry pri 0 / key 0
// and order exactly as before — by (at, seq). Late-class events (pri 1,
// scheduled with AtCallLate) sort after every ordinary event at the same
// timestamp, ordered among themselves by an explicit caller-chosen key
// instead of scheduling history. The DRAM model and tsim's entity seams
// schedule in the late class, so the order of their same-timestamp ties
// — and with it every golden — is a pure function of (time, key).
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	pri  uint8  // 0 ordinary, 1 late (end of timestamp)
	key  int32  // tie-break among late events at one timestamp
	fn   func()
	call func(any)
	arg  any
}

// before reports whether a orders strictly before b. (at, pri, key, seq)
// is a total strict order: seq is unique per engine, so two distinct
// events never compare equal and pop order is independent of heap shape.
func (a *event) before(b *event) bool {
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

// arity is the heap's branching factor. Children of node i live at
// arity*i+1 .. arity*i+arity; the parent of node i is (i-1)/arity.
const arity = 4

// eventQueue is the min-heap. The zero value is an empty queue. The
// backing slice grows to the simulation's high-water mark and is then
// reused forever: push/pop are allocation-free in steady state.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// peek returns the minimum event without removing it. The pointer is only
// valid until the next push or pop. Callers must check len() > 0 first.
func (q *eventQueue) peek() *event { return &q.ev[0] }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	// Inlined sift-up with a moving hole: the new event is only written
	// once, at its final position.
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	e := ev[n]
	// Zero the vacated tail slot so the backing array does not retain the
	// callback and argument past the event's execution.
	ev[n] = event{}
	q.ev = ev[:n]
	if n > 0 {
		// Inlined sift-down of the former tail element from the root.
		ev = q.ev
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
				if ev[c].before(&ev[m]) {
					m = c
				}
			}
			if !ev[m].before(&e) {
				break
			}
			ev[i] = ev[m]
			i = m
		}
		ev[i] = e
	}
	return top
}
