// Package itree implements the integrity tree protecting counter blocks
// (Sec. II "Counter Blocks"). Each counter or tree block stored in DRAM
// carries its own MAC, computed with the *parent's* counter for that block;
// parents form a tree whose root counter never leaves the chip. The tree is
// functional: Verify really recomputes MACs, and tampering with either a
// stored MAC or counter state is detected.
package itree

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/crypto"
	"repro/internal/ctr"
	"repro/internal/inv"
)

// Tree ties an address space, a counter organisation and a crypto engine
// into a verifiable metadata hierarchy.
type Tree struct {
	space *addr.Space
	org   ctr.Organisation
	ser   ctr.Serializer
	eng   *crypto.Engine

	// macs holds the stored ("in DRAM") MAC of each metadata block that
	// has ever been written back. Blocks never written back verify
	// against the all-zero initial state.
	macs map[uint64]uint64

	// rec is the owning run's invariant recorder (nil, checking off, until
	// SetRecorder binds one).
	rec *inv.Recorder
}

// New builds a tree. The organisation must implement ctr.Serializer (all
// shipped organisations do).
func New(space *addr.Space, org ctr.Organisation, eng *crypto.Engine) *Tree {
	ser, ok := org.(ctr.Serializer)
	if !ok {
		panic(fmt.Sprintf("itree: organisation %s does not serialize", org.Name()))
	}
	return &Tree{space: space, org: org, ser: ser, eng: eng, macs: make(map[uint64]uint64)}
}

// SetRecorder binds the owning run's invariant recorder (nil turns
// checking off). Call at construction time, before any traffic.
func (t *Tree) SetRecorder(r *inv.Recorder) { t.rec = r }

// Space exposes the address map (for geometry queries).
func (t *Tree) Space() *addr.Space { return t.space }

// childSlot locates a block inside its parent: parent block index and the
// child offset within it. ok is false for the root.
func (t *Tree) childSlot(block uint64) (parent uint64, off int, ok bool) {
	parent, ok = t.space.ParentOf(block)
	if !ok {
		return 0, 0, false
	}
	first, _ := t.space.CoveredRange(parent)
	return parent, int(block - first), true
}

// rootKey is the synthetic counter-block index holding the tree root's
// on-chip counter. It can never collide with a real block index.
const rootKey = ^uint64(0)

// CounterOf reports the current write counter protecting `block` (data or
// metadata). The root returns its on-chip counter, which is tracked under a
// reserved key so it cannot collide with the counters the root block itself
// stores for its children.
func (t *Tree) CounterOf(block uint64) uint64 {
	parent, off, ok := t.childSlot(block)
	if !ok {
		return t.org.Counter(rootKey, 0)
	}
	return t.org.Counter(parent, off)
}

// IncrementCounterOf advances the write counter protecting `block` and
// returns any overflow (page re-encryption) consequence. For the root the
// on-chip counter advances overflow-free.
func (t *Tree) IncrementCounterOf(block uint64) ctr.Overflow {
	check := t.rec.On()
	var before uint64
	if check {
		before = t.CounterOf(block)
	}
	var ov ctr.Overflow
	parent, off, ok := t.childSlot(block)
	if !ok {
		ov = t.org.Increment(rootKey, 0, t.space.Level(block)+1)
	} else {
		ov = t.org.Increment(parent, off, t.space.Level(parent))
	}
	// Freshness rests on write counters strictly increasing — a counter
	// that repeats a value reopens the replay window, so overflow/rebase
	// handling must never move one backwards.
	if check {
		if after := t.CounterOf(block); after <= before {
			t.rec.Failf("itree", "counter of block %#x did not advance: %#x -> %#x (%s)", block, before, after, t.org.Name())
		}
	}
	return ov
}

// WriteBack simulates writing metadata block `block` to DRAM: its counter
// (held by the parent) advances, and a fresh MAC over its serialized
// content is stored. It returns the overflow consequence of the counter
// increment, which the memory controller turns into re-encryption traffic.
func (t *Tree) WriteBack(block uint64) ctr.Overflow {
	if t.space.Level(block) < 0 {
		panic("itree: WriteBack is for metadata blocks; data blocks go through the secure-memory store")
	}
	ov := t.IncrementCounterOf(block)
	t.macs[block] = t.macOf(block)
	return ov
}

// WriteBackPath writes back `block` and every ancestor up to the root, in
// leaf-to-root order, returning all overflow consequences. This is the
// write-through discipline the functional secure-memory store uses: after
// it, every stored MAC is consistent with current counter state, so Verify
// reflects only genuine tampering.
func (t *Tree) WriteBackPath(block uint64) []ctr.Overflow {
	var ovs []ctr.Overflow
	cur := block
	for {
		if ov := t.WriteBack(cur); ov.Happened {
			ovs = append(ovs, ov)
		}
		p, more := t.space.ParentOf(cur)
		if !more {
			return ovs
		}
		cur = p
	}
}

// Verify checks metadata block `block` against its stored MAC under the
// current parent counter. Blocks never written back verify if their state
// is still the initial zero state.
func (t *Tree) Verify(block uint64) bool {
	stored, ok := t.macs[block]
	if !ok {
		// Initial state: valid only while the content is untouched,
		// i.e. its MAC equals the MAC of the zero image at counter 0.
		return t.macOf(block) == t.zeroMAC(block)
	}
	return stored == t.macOf(block)
}

// VerifyPath verifies `block` and every ancestor up to the root, returning
// the first failing block, or ok=true when the whole path validates.
func (t *Tree) VerifyPath(block uint64) (bad uint64, ok bool) {
	cur := block
	for {
		if !t.Verify(cur) {
			return cur, false
		}
		p, more := t.space.ParentOf(cur)
		if !more {
			return 0, true
		}
		cur = p
	}
}

// TamperMAC corrupts the stored MAC of a metadata block (attack model:
// flipping bits on the DRAM bus / in DRAM).
func (t *Tree) TamperMAC(block uint64) {
	t.macs[block] = t.macOf(block) ^ 0x1
}

func (t *Tree) macOf(block uint64) uint64 {
	var img [ctr.SerializedBytes]byte
	t.ser.Serialize(block, &img)
	return t.eng.MAC(img[:], addr.AddrOf(block), t.CounterOf(block))
}

func (t *Tree) zeroMAC(block uint64) uint64 {
	var img [ctr.SerializedBytes]byte
	return t.eng.MAC(img[:], addr.AddrOf(block), 0)
}
