package tsim

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// core is a window-limited out-of-order core model (Table I: 4-wide,
// 192-entry ROB). It captures the properties the evaluation depends on:
//
//   - memory-level parallelism bounded by the ROB: an outstanding load
//     permits up to ROBEntries younger instructions (including other
//     loads) to dispatch before the front end stalls;
//   - in-order retirement: the run's span ends at the last retirement;
//   - dependent loads (pointer chases) issue only after their predecessor
//     returns;
//   - L1 MSHRs cap outstanding misses;
//   - stores retire through a write buffer and never stall the core, but
//     their fills consume MSHRs and memory bandwidth.
type core struct {
	s     *Sim
	id    int
	tile  noc.NodeID
	gen   workload.Generator
	l1    *cache.Cache
	l1Lat sim.Time

	refsLeft int64
	instrs   int64 // retired instructions (memory + non-memory)
	stash    workload.Access
	stashed  bool

	clock       sim.Time // front-end dispatch clock
	outstanding int      // misses in flight (loads + store fills)
	inflight    []int64  // instruction indices of in-flight loads, oldest first
	lastMemDone sim.Time
	lastMemPend bool  // the most recently issued memory access is in flight
	lastMemIdx  int64 // its instruction index
	lastRetire  sim.Time
	waiting     bool
	done        bool

	cycle      sim.Time
	issueWidth int64

	// freeMiss is the coreMiss freelist: one entry per L1 miss rides the
	// hierarchy and returns here on completion, so steady-state misses
	// allocate nothing.
	freeMiss *coreMiss

	// Cached stats cells, bound at construction.
	cLoad, cStore *int64
}

// coreMiss carries one L1 miss (load or store fill) through the L2. It is
// the scheduling argument for the L1->L2 handoff event and the waiter the
// L2 completes, replacing the two closures the old path allocated per
// miss.
type coreMiss struct {
	c     *core
	block uint64
	idx   int64 // instruction index (loads)
	store bool
	tr    *obs.Req
	next  *coreMiss // freelist link
}

func newCore(s *Sim, id int, gen workload.Generator, refs int64) *core {
	c := &core{
		s:          s,
		id:         id,
		tile:       s.mesh.CoreTile(id),
		gen:        gen,
		l1:         cache.New("l1", s.cfg.L1Bytes, s.cfg.L1Ways),
		l1Lat:      s.cfg.L1Latency,
		refsLeft:   refs,
		cycle:      s.cfg.CoreCycle(),
		issueWidth: int64(s.cfg.IssueWidth),
		cLoad:      s.st.CounterRef(stats.TsimLoad),
		cStore:     s.st.CounterRef(stats.TsimStore),
	}
	c.l1.SetRecorder(s.ivr)
	return c
}

func (c *core) getMiss() *coreMiss {
	m := c.freeMiss
	if m == nil {
		return &coreMiss{c: c}
	}
	c.freeMiss = m.next
	m.next = nil
	return m
}

func (c *core) putMiss(m *coreMiss) {
	m.tr = nil
	m.next = c.freeMiss
	c.freeMiss = m
}

// coreStep re-enters the dispatch loop; the prebound form of c.step.
func coreStep(x any) { x.(*core).step() }

// coreMissEnter hands a stashed L1 miss to the core's L2 at the time the
// L1 lookup completes.
func coreMissEnter(x any) {
	m := x.(*coreMiss)
	m.c.s.l2s[m.c.id].read(m.block, m.store, m.tr, m)
}

// complete implements waiter: the block is decrypted, verified and
// resident in L2.
func (m *coreMiss) complete(at sim.Time) {
	c := m.c
	m.tr.Finish(at)
	if m.store {
		c.outstanding--
		c.fillL1(m.block, true)
		c.resume()
	} else {
		c.loadDone(m.idx, m.block, at)
	}
	c.putMiss(m)
}

func (c *core) start() { c.s.eng.AtCall(0, coreStep, c) }

// step dispatches instructions until a structural stall (ROB, MSHR,
// dependence) or the end of the stream. It re-arms from completion events.
func (c *core) step() {
	c.waiting = false
	for {
		if !c.stashed {
			if c.refsLeft <= 0 {
				c.done = true
				return
			}
			c.stash = c.gen.Next()
			c.refsLeft--
			c.stashed = true
		}
		a := c.stash
		// Structural gates; any stall keeps the access stashed and
		// waits for a completion to re-arm the loop.
		if c.outstanding >= c.s.cfg.L1MSHRs {
			c.waiting = true
			return
		}
		nextInstr := c.instrs + int64(a.NonMem) + 1
		if len(c.inflight) > 0 && nextInstr-c.inflight[0] >= int64(c.s.cfg.ROBEntries) {
			c.waiting = true
			return
		}
		if a.Dep && c.lastMemPend {
			c.waiting = true
			return
		}

		// Commit dispatch. The memory instruction occupies a dispatch
		// slot alongside its non-memory batch.
		c.stashed = false
		batchCycles := (int64(a.NonMem) + 1 + c.issueWidth - 1) / c.issueWidth
		c.clock += sim.Time(batchCycles) * c.cycle
		c.instrs = nextInstr
		if a.Dep && c.lastMemDone > c.clock {
			c.clock = c.lastMemDone
		}
		c.issueMem(a)
	}
}

// issueMem sends one memory access into the hierarchy at the front-end
// clock. It never blocks.
func (c *core) issueMem(a workload.Access) {
	block := addr.BlockOf(a.Addr)
	t := c.clock
	if now := c.s.eng.Now(); t < now {
		t = now
		c.clock = t
	}
	idx := c.instrs

	if a.Write {
		*c.cStore++
		done := t + c.l1Lat
		c.retireAt(done)
		c.lastMemDone, c.lastMemPend, c.lastMemIdx = done, false, idx
		if c.l1.Lookup(block) {
			c.l1.MarkDirty(block)
			return
		}
		// Store miss: fetch for ownership in the background.
		c.outstanding++
		rt := c.s.trc.StartReq(c.id, block, true, t)
		rt.AddSpan(obs.SegL1, t, done)
		m := c.getMiss()
		m.block, m.idx, m.store, m.tr = block, idx, true, rt
		c.s.atCall(done, coreMissEnter, m)
		return
	}

	*c.cLoad++
	if c.l1.Lookup(block) {
		done := t + c.l1Lat
		c.retireAt(done)
		c.lastMemDone, c.lastMemPend, c.lastMemIdx = done, false, idx
		return
	}
	// L1 load miss.
	c.outstanding++
	c.inflight = append(c.inflight, idx)
	c.lastMemPend, c.lastMemIdx = true, idx
	rt := c.s.trc.StartReq(c.id, block, false, t)
	rt.AddSpan(obs.SegL1, t, t+c.l1Lat)
	m := c.getMiss()
	m.block, m.idx, m.store, m.tr = block, idx, false, rt
	c.s.atCall(t+c.l1Lat, coreMissEnter, m)
}

// loadDone retires a returning load and releases stalled dispatch.
func (c *core) loadDone(instrIdx int64, block uint64, at sim.Time) {
	c.outstanding--
	c.fillL1(block, false)
	c.retireAt(at)
	for i := range c.inflight {
		if c.inflight[i] == instrIdx {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			break
		}
	}
	if c.lastMemPend && instrIdx == c.lastMemIdx {
		c.lastMemPend = false
	}
	if c.lastMemDone < at {
		c.lastMemDone = at
	}
	c.resume()
}

func (c *core) resume() {
	if c.waiting {
		c.waiting = false
		c.s.eng.AfterCall(0, coreStep, c)
	}
}

// retireAt records an in-order retirement bound.
func (c *core) retireAt(t sim.Time) {
	if t > c.lastRetire {
		c.lastRetire = t
	}
}

// fillL1 inserts into L1, folding dirty victims into L2's functional state
// (L1 writeback timing is absorbed into L2 latency).
func (c *core) fillL1(block uint64, dirty bool) {
	v, ok := c.l1.Insert(block, dirty, addr.KindData)
	if ok && v.Dirty {
		l2 := c.s.l2s[c.id]
		if !l2.c.MarkDirty(v.Block) {
			l2.fill(v.Block, true, c.s.eng.Now())
		}
	}
}
