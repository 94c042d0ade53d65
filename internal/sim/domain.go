// Conservative parallel simulation: a Shard partitions one run into
// Domains — each with its own event queue and local clock — connected by
// typed, timestamped message Links with a fixed minimum latency
// (lookahead). Execution proceeds in barrier rounds:
//
//  1. The coordinator computes a safe bound per domain from the earliest
//     pending event of every other domain plus the all-pairs minimum link
//     latency between them (the static window).
//  2. Domains execute in parallel, each strictly below its bound. A send
//     during the round additionally lowers the sender's own bound to the
//     delivery time plus the minimum return-path latency (the feedback
//     window), so a domain can run far ahead while it is not interacting.
//  3. At the barrier the coordinator delivers all buffered messages in
//     (link rank, send order) — a pure function of simulation state, so
//     the delivery sequence, and therefore the whole run, is identical at
//     any worker count.
//
// Every directed cycle of links must have positive total latency
// (Finalize checks this); that guarantees some domain can always make
// progress, so rounds never deadlock.
package sim

import "repro/internal/inv"

// infTime is the "no constraint" sentinel for bounds and distances. It is
// far below the int64 overflow line so adding a handful of link latencies
// to it stays positive.
const infTime Time = 1 << 62

// message is one buffered cross-domain event: deliver fn(arg) at absolute
// time at in the destination domain, in the ordinary (pri 0) or late
// (pri 1, keyed) class — mirroring AtCall vs AtCallLate.
type message struct {
	at   Time
	pri  uint8
	key  int32
	call func(any)
	arg  any
}

// Domain is one partition of a sharded run. It wraps a private Engine
// (queue, clock, sequence counter) bound to the run's invariant recorder.
// Components inside a domain schedule local work with Now/AtCall exactly
// as against an Engine; cross-domain effects must go through a Link.
type Domain struct {
	sh   *Shard
	id   int
	name string
	e    *Engine
	out  []*Link

	// feedback is the dynamic bound contributed by this round's own
	// sends: the earliest time a reply could come back. Reset to infTime
	// at each round start, lowered by Link.Send, read by execBound.
	feedback Time
	// ran counts events executed this round (written by the domain's
	// worker, read by the coordinator after the barrier).
	ran uint64
}

// Now reports the domain's local clock.
func (d *Domain) Now() Time { return d.e.now }

// Recorder reports the run's invariant recorder (shared with the hub).
func (d *Domain) Recorder() *inv.Recorder { return d.e.Recorder() }

// Pending reports the domain's scheduled-but-unexecuted event count.
func (d *Domain) Pending() int { return d.e.q.len() }

// At schedules fn at absolute local time t (panics on the past, like
// Engine.At).
func (d *Domain) At(t Time, fn func()) { d.e.At(t, fn) }

// AtCall schedules fn(arg) at absolute local time t — the allocation-free
// hot-path form, identical to Engine.AtCall.
func (d *Domain) AtCall(t Time, fn func(any), arg any) { d.e.AtCall(t, fn, arg) }

// AfterCall schedules fn(arg) d picoseconds from the local now.
func (d *Domain) AfterCall(dt Time, fn func(any), arg any) { d.e.AfterCall(dt, fn, arg) }

// AtCallLate schedules fn(arg) in the late class (see Engine.AtCallLate).
func (d *Domain) AtCallLate(t Time, key int32, fn func(any), arg any) {
	d.e.AtCallLate(t, key, fn, arg)
}

// execBound runs local events with timestamps strictly below the round's
// bound: the minimum of the coordinator's static window and the domain's
// own send feedback. Strictness matters — an event at exactly the bound
// could still be influenced by a message arriving at that time.
func (d *Domain) execBound(static Time) uint64 {
	e := d.e
	var n uint64
	for e.q.len() > 0 {
		bound := static
		if d.feedback < bound {
			bound = d.feedback
		}
		if e.peek().at >= bound {
			break
		}
		e.step()
		n++
	}
	return n
}

// deliverAt injects a barrier-delivered message into the local queue. A
// delivery behind the local clock means a lookahead violation slipped
// through; it is recorded as an invariant violation and clamped to now —
// never silently reordered before already-executed work.
func (d *Domain) deliverAt(t Time, pri uint8, key int32, call func(any), arg any) {
	e := d.e
	if t < e.now {
		if rec := e.rec; rec.On() {
			rec.Failf("sim", "domain %q: message delivery at %d ps behind local clock %d ps (lookahead violation); clamped",
				d.name, t, e.now)
		}
		t = e.now
	}
	e.seq++
	e.q.push(event{at: t, seq: e.seq, pri: pri, key: key, call: call, arg: arg})
}

// Link is a directed, fixed-minimum-latency message channel between two
// domains. Sends buffer during a round; the coordinator delivers all
// buffers at the barrier in (link rank, send order).
type Link struct {
	src, dst *Domain
	latency  Time
	rank     int
	// back is the minimum return-path latency dst→src (set by Finalize;
	// infTime when the destination can never influence the sender).
	back Time
	buf  []message
}

// Send schedules fn(arg) in the destination domain at absolute time at,
// in the ordinary event class. The contract is at >= src.Now() + latency:
// the link's declared latency is the lookahead the synchronizer relies
// on. A violating send is recorded on the run's invariant recorder and
// clamped up to the earliest legal time, keeping the run deterministic
// rather than corrupting it.
func (l *Link) Send(at Time, fn func(any), arg any) { l.send(at, 0, 0, fn, arg) }

// SendLate schedules fn(arg) in the destination's late class with the
// given tie key (see Engine.AtCallLate): at the destination it runs after
// every ordinary event with the same timestamp, ordered among same-time
// late events by key. Same lookahead contract as Send.
func (l *Link) SendLate(at Time, key int32, fn func(any), arg any) { l.send(at, 1, key, fn, arg) }

func (l *Link) send(at Time, pri uint8, key int32, fn func(any), arg any) {
	src := l.src
	if min := src.e.now + l.latency; at < min {
		if rec := src.e.rec; rec.On() {
			rec.Failf("sim", "link %q→%q: send for %d ps violates lookahead %d ps at now %d ps; clamped",
				src.name, l.dst.name, at, l.latency, src.e.now)
		}
		at = min
	}
	l.buf = append(l.buf, message{at: at, pri: pri, key: key, call: fn, arg: arg})
	if l.back < infTime {
		if fb := at + l.back; fb < src.feedback {
			src.feedback = fb
		}
	}
}

// Latency reports the link's declared minimum latency.
func (l *Link) Latency() Time { return l.latency }

// Shard coordinates a set of lookahead-synchronized domains. Domain 0 is
// the hub: the pre-existing serial Engine that owns the run (and its
// invariant recorder). Build with NewShard, partition with AddDomain,
// wire with Connect, seal with Finalize, then Run drains every domain.
type Shard struct {
	doms  []*Domain
	links []*Link
	dist  [][]Time
	final bool

	// Workers is the parallelism degree for round execution (domains are
	// statically striped across workers; the coordinator goroutine takes
	// stripe 0). Values below 1 run single-threaded. The schedule is
	// byte-identical at any worker count.
	Workers int
	// MaxSteps, when positive, bounds total executed events across all
	// domains; exceeding it panics (runaway-simulation guard).
	MaxSteps uint64

	rounds uint64
	bounds []Time
}

// NewShard wraps hub — the engine that owns the run — as domain 0 of a
// new shard. The hub's recorder binding is inherited by every domain
// added afterwards, so all violations of the run land in one ledger.
func NewShard(hub *Engine, workers int) *Shard {
	s := &Shard{Workers: workers}
	s.doms = append(s.doms, &Domain{sh: s, id: 0, name: "hub", e: hub})
	return s
}

// Hub reports the hub domain (the wrapped serial engine).
func (s *Shard) Hub() *Domain { return s.doms[0] }

// AddDomain creates a new empty domain sharing the run's recorder.
func (s *Shard) AddDomain(name string) *Domain {
	if s.final {
		panic("sim: AddDomain after Finalize")
	}
	d := &Domain{sh: s, id: len(s.doms), name: name, e: &Engine{rec: s.doms[0].e.rec}}
	s.doms = append(s.doms, d)
	return d
}

// Connect adds a directed link src→dst with the given minimum latency.
// Link creation order fixes barrier delivery order (rank).
func (s *Shard) Connect(src, dst *Domain, latency Time) *Link {
	if s.final {
		panic("sim: Connect after Finalize")
	}
	if latency < 0 {
		panic("sim: negative link latency")
	}
	if src.sh != s || dst.sh != nil && dst.sh != s {
		panic("sim: Connect across shards")
	}
	l := &Link{src: src, dst: dst, latency: latency, rank: len(s.links), back: infTime}
	s.links = append(s.links, l)
	src.out = append(src.out, l)
	return l
}

// Finalize seals the topology: it computes the all-pairs minimum-latency
// closure over the link graph (Floyd–Warshall), caches each link's
// return-path latency for the feedback window, and rejects any directed
// cycle with zero total latency — such a cycle would admit rounds in
// which no domain may move.
func (s *Shard) Finalize() {
	if s.final {
		panic("sim: Finalize twice")
	}
	n := len(s.doms)
	dist := make([][]Time, n)
	for i := range dist {
		dist[i] = make([]Time, n)
		for j := range dist[i] {
			dist[i][j] = infTime
		}
	}
	for _, l := range s.links {
		if lat := l.latency; lat < dist[l.src.id][l.dst.id] {
			dist[l.src.id][l.dst.id] = lat
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if dist[i][k] >= infTime {
				continue
			}
			for j := 0; j < n; j++ {
				if dist[k][j] >= infTime {
					continue
				}
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i][i] <= 0 {
			panic("sim: domain link graph has a zero-latency cycle through " + s.doms[i].name)
		}
	}
	for _, l := range s.links {
		l.back = dist[l.dst.id][l.src.id]
	}
	s.dist = dist
	s.bounds = make([]Time, n)
	s.final = true
}

// Pending reports scheduled-but-unexecuted events across all domains.
// Between rounds every link buffer is empty, so this is the full count.
func (s *Shard) Pending() int {
	total := 0
	for _, d := range s.doms {
		total += d.e.q.len()
	}
	return total
}

// Steps reports executed events across all domains.
func (s *Shard) Steps() uint64 {
	var total uint64
	for _, d := range s.doms {
		total += d.e.steps
	}
	return total
}

// Rounds reports completed barrier rounds.
func (s *Shard) Rounds() uint64 { return s.rounds }

// staticBound computes the round's safe window for d: the earliest moment
// any other seeded domain could influence it. Its own pending events do
// not constrain it — self-influence goes through a send and is handled by
// the feedback window at runtime.
func (s *Shard) staticBound(d *Domain) Time {
	bound := infTime
	row := s.dist
	for _, o := range s.doms {
		if o == d || o.e.q.len() == 0 {
			continue
		}
		if lat := row[o.id][d.id]; lat < infTime {
			if w := o.e.peek().at + lat; w < bound {
				bound = w
			}
		}
	}
	return bound
}

// deliverAll drains every link buffer into its destination queue in
// (link rank, send order), assigning destination-local sequence numbers
// as it goes. Reports whether anything moved.
func (s *Shard) deliverAll() bool {
	moved := false
	for _, l := range s.links {
		if len(l.buf) == 0 {
			continue
		}
		moved = true
		for i := range l.buf {
			m := &l.buf[i]
			l.dst.deliverAt(m.at, m.pri, m.key, m.call, m.arg)
			l.buf[i] = message{}
		}
		l.buf = l.buf[:0]
	}
	return moved
}

// Run executes barrier rounds until every domain's queue is empty and no
// message is buffered. It may be called repeatedly; each call drains
// whatever has been seeded since (events or pre-Run sends alike). When
// RunWorkers() > 1 it spawns that many round workers for the duration of
// the call; execution is nonetheless byte-identical to Workers = 1. The serial
// path is allocation-free in steady state — the worker machinery lives in
// runParallel so nothing here escapes.
func (s *Shard) Run() {
	if !s.final {
		panic("sim: Shard.Run before Finalize")
	}
	if nw := s.RunWorkers(); nw > 1 {
		s.runParallel(nw)
		return
	}
	for s.beginRound() {
		for i, d := range s.doms {
			d.ran = d.execBound(s.bounds[i])
		}
		s.endRound()
	}
}

// RunWorkers reports how many goroutines Run executes rounds on: Workers
// clamped to at least 1 and at most the domain count.
func (s *Shard) RunWorkers() int {
	nw := s.Workers
	if nw < 1 {
		nw = 1
	}
	if nw > len(s.doms) {
		nw = len(s.doms)
	}
	return nw
}

// runParallel is Run's multi-worker body: nw-1 spawned workers plus the
// coordinator each execute a static stripe of domains every round.
func (s *Shard) runParallel(nw int) {
	start := make([]chan struct{}, nw-1)
	done := make(chan struct{}, nw-1)
	for w := range start {
		ch := make(chan struct{}, 1)
		start[w] = ch
		go func(w int, ch chan struct{}) {
			for range ch {
				for i := w + 1; i < len(s.doms); i += nw {
					d := s.doms[i]
					d.ran = d.execBound(s.bounds[i])
				}
				done <- struct{}{}
			}
		}(w, ch)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
	}()
	for s.beginRound() {
		for _, ch := range start {
			ch <- struct{}{}
		}
		// The coordinator takes stripe 0, which includes the hub — the
		// heaviest domain runs without a handoff.
		for i := 0; i < len(s.doms); i += nw {
			d := s.doms[i]
			d.ran = d.execBound(s.bounds[i])
		}
		for range start {
			<-done
		}
		s.endRound()
	}
}

// beginRound prepares the next round: per-domain static bounds, feedback
// and progress reset. It reports false once the shard is fully drained —
// no pending events and nothing buffered on any link (messages sent before
// Run get delivered here, so a pre-seeded shard still makes progress).
func (s *Shard) beginRound() bool {
	if s.Pending() == 0 && !s.deliverAll() {
		return false
	}
	for i, d := range s.doms {
		s.bounds[i] = s.staticBound(d)
		d.feedback = infTime
		d.ran = 0
	}
	return true
}

// endRound runs the barrier: deliver every buffered message, then enforce
// progress (a round with no work and no traffic means the topology
// deadlocked, which Finalize should have made impossible) and the step
// ceiling.
func (s *Shard) endRound() {
	var executed uint64
	for _, d := range s.doms {
		executed += d.ran
	}
	moved := s.deliverAll()
	s.rounds++
	if executed == 0 && !moved {
		panic("sim: shard deadlock: no events executable and no messages in flight")
	}
	if s.MaxSteps > 0 && s.Steps() > s.MaxSteps {
		panic("sim: shard exceeded MaxSteps (runaway simulation)")
	}
}
