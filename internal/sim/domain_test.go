package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/inv"
)

// ---- Cross-domain ordering property ----

// traceEntry is one observed callback execution: local time plus the
// message's identity.
type traceEntry struct {
	at Time
	id int
}

// runPingScenario builds a hub + 3-domain shard, drives a randomized
// ping-pong workload across it, and returns each domain's execution trace.
// Everything about the scenario is a pure function of seed, so two calls
// with equal seeds must produce identical traces — at any worker count.
func runPingScenario(t *testing.T, seed int64, workers int) [][]traceEntry {
	t.Helper()
	const domains = 3
	hub := New()
	sh := NewShard(hub, workers)
	var doms []*Domain
	var toDom, toHub []*Link
	for i := 0; i < domains; i++ {
		d := sh.AddDomain("d")
		doms = append(doms, d)
		toDom = append(toDom, sh.Connect(sh.Hub(), d, Time(10+i)))
		toHub = append(toHub, sh.Connect(d, sh.Hub(), Time(5+i)))
	}
	sh.Finalize()

	traces := make([][]traceEntry, domains+1)
	rng := rand.New(rand.NewSource(seed))
	var bounce func(dom int, id, hops int) func(any)
	bounce = func(dom int, id, hops int) func(any) {
		return func(any) {
			d := doms[dom]
			traces[dom+1] = append(traces[dom+1], traceEntry{d.Now(), id})
			// Reply to the hub; the hub decides whether to bounce again.
			at := d.Now() + toHub[dom].Latency()
			toHub[dom].Send(at, func(any) {
				traces[0] = append(traces[0], traceEntry{sh.Hub().Now(), id})
				if hops > 0 {
					next := (dom + id + hops) % domains
					nat := sh.Hub().Now() + toDom[next].Latency() + Time(hops%7)
					toDom[next].Send(nat, bounce(next, id, hops-1), nil)
				}
			}, nil)
		}
	}
	for id := 0; id < 40; id++ {
		dom := rng.Intn(domains)
		at := Time(rng.Intn(50))
		hops := 2 + rng.Intn(5)
		id := id
		sh.Hub().At(at, func() {
			sat := sh.Hub().Now() + toDom[dom].Latency()
			toDom[dom].Send(sat, bounce(dom, id, hops), nil)
		})
	}
	sh.Run()
	if sh.Pending() != 0 {
		t.Fatalf("shard did not drain: %d events pending", sh.Pending())
	}
	return traces
}

// TestShardOrderingReproducible is the ordering property: every domain's
// execution sequence — (local time, message id) at every step — is a pure
// function of the scenario. Reruns and different worker counts must match
// entry for entry.
func TestShardOrderingReproducible(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		base := runPingScenario(t, seed, 1)
		for _, workers := range []int{1, 2, 4} {
			got := runPingScenario(t, seed, workers)
			if len(got) != len(base) {
				t.Fatalf("seed %d workers %d: %d traces, want %d", seed, workers, len(got), len(base))
			}
			for d := range base {
				if len(got[d]) != len(base[d]) {
					t.Fatalf("seed %d workers %d domain %d: %d entries, want %d",
						seed, workers, d, len(got[d]), len(base[d]))
				}
				for i := range base[d] {
					if got[d][i] != base[d][i] {
						t.Fatalf("seed %d workers %d domain %d step %d: ran (at=%d id=%d), want (at=%d id=%d)",
							seed, workers, d, i, got[d][i].at, got[d][i].id, base[d][i].at, base[d][i].id)
					}
				}
			}
		}
	}
}

// TestShardTimeNeverRegresses checks the causal guarantee behind the
// bounds: within every domain the observed execution times are
// non-decreasing — no barrier delivery ever lands behind a local clock.
func TestShardTimeNeverRegresses(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, workers := range []int{1, 4} {
			for d, tr := range runPingScenario(t, seed, workers) {
				for i := 1; i < len(tr); i++ {
					if tr[i].at < tr[i-1].at {
						t.Fatalf("seed %d workers %d domain %d: time regressed %d -> %d",
							seed, workers, d, tr[i-1].at, tr[i].at)
					}
				}
			}
		}
	}
}

// ---- Lookahead violation detection ----

// TestShardLookaheadViolationCaught proves a send below the link's declared
// latency is not silently reordered: it lands on the run's invariant
// recorder and the message is clamped to the earliest legal time.
func TestShardLookaheadViolationCaught(t *testing.T) {
	rec := inv.NewRecorder()
	rec.Enable(true)
	hub := New()
	hub.SetRecorder(rec)
	sh := NewShard(hub, 1)
	d := sh.AddDomain("dram0")
	to := sh.Connect(sh.Hub(), d, 100)
	sh.Finalize()

	var ranAt Time = -1
	sh.Hub().At(50, func() {
		// Contract requires at >= 50+100; this send undercuts the lookahead.
		to.Send(60, func(any) { ranAt = d.Now() }, nil)
	})
	sh.Run()

	if n := rec.Count(); n == 0 {
		t.Fatal("lookahead-violating send recorded no invariant violation")
	} else if msg := rec.Violations()[0].Message; !strings.Contains(msg, "lookahead") {
		t.Fatalf("violation %q does not name the lookahead contract", msg)
	}
	if ranAt != 150 {
		t.Fatalf("violating send ran at %d ps, want clamped to 150 ps", ranAt)
	}
}

// TestShardZeroLatencyCycleRejected: Finalize must refuse a topology in
// which a round could exist where no domain may move.
func TestShardZeroLatencyCycleRejected(t *testing.T) {
	hub := New()
	sh := NewShard(hub, 1)
	d := sh.AddDomain("d")
	sh.Connect(sh.Hub(), d, 0)
	sh.Connect(d, sh.Hub(), 0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("zero-latency cycle passed Finalize")
		}
	}()
	sh.Finalize()
}

// ---- Drain, restart and progress accounting ----

// TestShardRunWorkersClamp pins the worker count Run executes rounds on:
// at least one, at most one per domain.
func TestShardRunWorkersClamp(t *testing.T) {
	sh := NewShard(New(), 0)
	sh.AddDomain("a")
	sh.AddDomain("b")
	for _, c := range []struct{ workers, want int }{{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 3}, {9, 3}} {
		sh.Workers = c.workers
		if got := sh.RunWorkers(); got != c.want {
			t.Errorf("Workers=%d over 3 domains: RunWorkers()=%d, want %d", c.workers, got, c.want)
		}
	}
}

// TestShardRunTwiceDrains checks Run is restartable: seeding more work
// after a drain and running again executes it, with Steps and Rounds
// accumulating monotonically.
func TestShardRunTwiceDrains(t *testing.T) {
	hub := New()
	sh := NewShard(hub, 2)
	d := sh.AddDomain("d")
	to := sh.Connect(sh.Hub(), d, 10)
	back := sh.Connect(d, sh.Hub(), 10)
	sh.Finalize()

	ran := 0
	seed := func() {
		sh.Hub().At(sh.Hub().Now(), func() {
			to.Send(sh.Hub().Now()+10, func(any) {
				back.Send(d.Now()+10, func(any) { ran++ }, nil)
			}, nil)
		})
	}
	seed()
	sh.Run()
	if ran != 1 || sh.Pending() != 0 {
		t.Fatalf("first drain: ran=%d pending=%d", ran, sh.Pending())
	}
	steps, rounds := sh.Steps(), sh.Rounds()
	seed()
	sh.Run()
	if ran != 2 || sh.Pending() != 0 {
		t.Fatalf("second drain: ran=%d pending=%d", ran, sh.Pending())
	}
	if sh.Steps() <= steps || sh.Rounds() <= rounds {
		t.Fatalf("progress counters did not advance: steps %d->%d rounds %d->%d",
			steps, sh.Steps(), rounds, sh.Rounds())
	}
}

// ---- Steady-state allocation pin ----

// pongState is the prebound ping-pong workload for the allocation pin.
type pongState struct {
	sh     *Shard
	d      *Domain
	to     *Link
	back   *Link
	bounce int
}

func domPingCB(x any) {
	s := x.(*pongState)
	s.back.SendLate(s.d.Now()+s.back.Latency(), 0, hubPongCB, s)
}

func hubPongCB(x any) {
	s := x.(*pongState)
	if s.bounce > 0 {
		s.bounce--
		s.to.Send(s.sh.Hub().Now()+s.to.Latency(), domPingCB, s)
	}
}

// BenchmarkShardRoundTrip prices one barrier round trip at Workers = 1 —
// send, bound computation, delivery, late-class reply — against which the
// tsim domain-scaling numbers in BENCH_8.json are read: the barrier
// overhead a domain must amortise with parallel work.
func BenchmarkShardRoundTrip(b *testing.B) {
	b.ReportAllocs()
	hub := New()
	sh := NewShard(hub, 1)
	d := sh.AddDomain("d")
	s := &pongState{sh: sh, d: d}
	s.to = sh.Connect(sh.Hub(), d, 10)
	s.back = sh.Connect(d, sh.Hub(), 10)
	sh.Finalize()
	s.bounce = b.N
	s.to.Send(sh.Hub().Now()+s.to.Latency(), domPingCB, s)
	sh.Run()
}

// TestShardSteadyStateZeroAllocs pins the sharded engine's hot path: once
// the link buffers and queues have reached their high-water marks, a full
// round trip — send, barrier delivery, late-class reply, hub dispatch —
// allocates nothing at Workers = 1. (With workers the channel handshakes
// are per-Run, not per-round, and are pinned separately by the parity
// tests running millions of events.)
func TestShardSteadyStateZeroAllocs(t *testing.T) {
	hub := New()
	sh := NewShard(hub, 1)
	d := sh.AddDomain("d")
	s := &pongState{sh: sh, d: d}
	s.to = sh.Connect(sh.Hub(), d, 10)
	s.back = sh.Connect(d, sh.Hub(), 10)
	sh.Finalize()

	run := func(bounces int) {
		s.bounce = bounces
		s.to.Send(sh.Hub().Now()+s.to.Latency(), domPingCB, s)
		sh.Run()
	}
	run(64) // warm queues and buffers past any growth
	allocs := testing.AllocsPerRun(100, func() { run(50) })
	if allocs != 0 {
		t.Fatalf("steady-state shard round trip allocated %.1f times per run, want 0", allocs)
	}
}
