package tsim

import "repro/internal/sim"

// This file wires the message seams between the machine's entities: the
// per-core L2s, the LLC slices and the memory controller. Every message
// that crosses from one entity to another is a late-class event on the
// run's engine, keyed by its directed entity pair. Its position among the
// events of one timestamp is then fixed by (time, key) rather than by when
// it was scheduled; the goldens were recorded with exactly that tie order,
// so the keys below must not change (DESIGN.md §14).

// seamKeyBase starts the tsim seam key space above the DRAM model's
// late-class keys (channel finish/kick/arrival keys are < 3*channels).
const seamKeyBase = 1024

// port is one directed seam between two entities: its late-class key on
// the run's engine.
type port struct {
	eng *sim.Engine
	key int32
}

// send schedules fn(arg) at absolute time at in the port's late-class
// slot, clamped to now exactly like Sim.atCall.
func (p port) send(at sim.Time, fn func(any), arg any) {
	if now := p.eng.Now(); at < now {
		at = now
	}
	p.eng.AtCallLate(at, p.key, fn, arg)
}

// wirePorts builds every entity's seam ports. Key layout (C = cores,
// S = slices, B = seamKeyBase), unique per directed entity pair:
//
//	l2 c    -> slice j : B + c*S + j
//	slice j -> core c  : B + C*S + j*C + c
//	slice j -> MC      : B + 2*C*S + j
//	MC      -> slice j : B + 2*C*S + S + j
//	MC      -> core c  : B + 2*C*S + 2*S + c
func (s *Sim) wirePorts() {
	C, S := s.opt.Cores, len(s.slices)
	seam := func(key int) port { return port{eng: s.eng, key: int32(seamKeyBase + key)} }
	for _, l := range s.l2s {
		l.toSlice = make([]port, S)
		for j := range l.toSlice {
			l.toSlice[j] = seam(l.id*S + j)
		}
	}
	for j, g := range s.slices {
		g.toCore = make([]port, C)
		for c := range g.toCore {
			g.toCore[c] = seam(C*S + j*C + c)
		}
		g.toMC = seam(2*C*S + j)
	}
	s.mc.toSlice = make([]port, S)
	for j := range s.mc.toSlice {
		s.mc.toSlice[j] = seam(2*C*S + S + j)
	}
	s.mc.toCore = make([]port, C)
	for c := range s.mc.toCore {
		s.mc.toCore[c] = seam(2*C*S + 2*S + c)
	}
}

// u64box carries a packed seam payload. Interface-boxing a uint64
// allocates, so the run recycles boxes through a freelist; the steady
// state is pinned allocation-free.
type u64box struct {
	v    uint64
	next *u64box
}

// box wraps a packed payload for a seam send.
func (s *Sim) box(v uint64) *u64box {
	if b := s.boxFree; b != nil {
		s.boxFree, b.next = b.next, nil
		b.v = v
		return b
	}
	return &u64box{v: v}
}

// unbox reads a seam payload and retires its box.
func (s *Sim) unbox(a any) uint64 {
	b := a.(*u64box)
	b.next = s.boxFree
	s.boxFree = b
	return b.v
}
