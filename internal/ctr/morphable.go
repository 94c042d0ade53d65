package ctr

import (
	"math/bits"

	"repro/internal/sim"
)

// Morphable Counters [MICRO'18] pack 128 minor counters into one 64 B block
// by morphing between formats:
//
//   - a uniform format: all 128 minors at 3 bits each (384 payload bits),
//   - zero-counter-compression (ZCC) formats: a 128-bit presence bitmap
//     plus k non-zero minors of width w, with k*w <= 256 payload bits.
//     w=7 -> k=36, w=6 -> k=42, w=5 -> k=51 — exactly the "variable and
//     non-power-of-2 (e.g., 36, 42, 51)" slot counts the paper cites when
//     motivating the 3 ns decode latency.
//
// When an increment makes the live minors unrepresentable in every format,
// the block rebases: the major counter advances, minors reset, and all 128
// covered blocks (two 4 KB pages) must be re-encrypted.
type morphable struct {
	blocks map[uint64]*morphBlock
}

type morphBlock struct {
	major uint64
	// nz counts the non-zero minors and max is the largest; Increment keeps
	// both current and a rebase resets them, so deciding whether the block
	// still fits a format never rescans the minors. They sit next to major,
	// in the block's first host cache line.
	nz     int
	max    uint32
	minors [128]uint32
}

func newMorphable() *morphable { return &morphable{blocks: make(map[uint64]*morphBlock)} }

func (m *morphable) Name() string            { return "morphable" }
func (m *morphable) Coverage() int           { return 128 }
func (m *morphable) DecodeLatency() sim.Time { return sim.NS(3) }

func (m *morphable) Counter(blk uint64, off int) uint64 {
	if b := m.blocks[blk]; b != nil {
		return counterValue(b.major, uint64(b.minors[off]))
	}
	return 0
}

// zccPayloadBits is the budget for non-zero minors in ZCC formats
// (512-bit block minus the presence bitmap minus major/format metadata).
const zccPayloadBits = 256

// uniformBits is the minor width in the uniform format.
const uniformBits = 3

// fits reports whether nz non-zero minors, the largest of them maxv, fit
// some format.
func fits(nz int, maxv uint32) bool {
	if maxv < 1<<uniformBits {
		return true // uniform 3-bit format holds everything
	}
	// ZCC: k slots of width w must cover all non-zero minors.
	return nz*bits.Len32(maxv) <= zccPayloadBits
}

func (m *morphable) Increment(blk uint64, off int, level int) Overflow {
	b := m.blocks[blk]
	if b == nil {
		b = &morphBlock{}
		m.blocks[blk] = b
	}
	v := b.minors[off] + 1
	b.minors[off] = v
	if v == 1 {
		b.nz++
	}
	b.max = max(b.max, v)
	if fits(b.nz, b.max) {
		return Overflow{}
	}
	// Rebase: advance the major counter past every minor so that
	// (major', 0) is strictly greater than any previously used
	// (major, minor) pair — counters must never repeat.
	b.major += uint64(b.max) + 1
	b.minors = [128]uint32{}
	b.nz, b.max = 0, 0
	return Overflow{Happened: true, ReencryptBlocks: 128, Level: level}
}
