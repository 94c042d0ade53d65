package ctr

import "math/bits"

// This file keeps the original morphable organisation, which rescans all
// 128 minors on every increment, as the reference the running-count
// morphable is checked against. Increment and representable are the old
// implementation unchanged except for names: morphable became
// refMorphable, morphBlock became refMorphBlock. Serialize encodes through
// the shared EncodeMorphable. The overflow decision, the rebase's major
// advance and the minor reset are the behaviour under test; do not
// "improve" this copy.

type refMorphable struct {
	blocks map[uint64]*refMorphBlock
}

type refMorphBlock struct {
	major  uint64
	minors [128]uint32
}

func newRefMorphable() *refMorphable {
	return &refMorphable{blocks: make(map[uint64]*refMorphBlock)}
}

func (m *refMorphable) Counter(blk uint64, off int) uint64 {
	if b := m.blocks[blk]; b != nil {
		return counterValue(b.major, uint64(b.minors[off]))
	}
	return 0
}

func (m *refMorphable) Serialize(blk uint64, dst *[SerializedBytes]byte) {
	b := m.blocks[blk]
	if b == nil {
		b = &refMorphBlock{}
	}
	if !EncodeMorphable(b.major, &b.minors, dst) {
		panic("ctr: reference morphable block in unrepresentable state")
	}
}

// representable reports whether the minor population fits some format.
func representable(minors *[128]uint32) bool {
	var nz, maxv int
	for _, v := range minors {
		if v != 0 {
			nz++
			if int(v) > maxv {
				maxv = int(v)
			}
		}
	}
	if maxv < 1<<uniformBits {
		return true // uniform 3-bit format holds everything
	}
	w := bits.Len32(uint32(maxv))
	// ZCC: k slots of width w must cover all non-zero minors.
	return nz*w <= zccPayloadBits
}

func (m *refMorphable) Increment(blk uint64, off int, level int) Overflow {
	b := m.blocks[blk]
	if b == nil {
		b = &refMorphBlock{}
		m.blocks[blk] = b
	}
	b.minors[off]++
	if representable(&b.minors) {
		return Overflow{}
	}
	// Rebase: advance the major counter past every minor so that
	// (major', 0) is strictly greater than any previously used
	// (major, minor) pair — counters must never repeat.
	var maxv uint32
	for _, v := range b.minors {
		if v > maxv {
			maxv = v
		}
	}
	b.major += uint64(maxv) + 1
	for i := range b.minors {
		b.minors[i] = 0
	}
	return Overflow{Happened: true, ReencryptBlocks: 128, Level: level}
}
