// Package ctr implements the three counter organisations the paper
// evaluates: monolithic 56-bit counters, SC-64 split counters [ISCA'06] and
// Morphable Counters [MICRO'18]. An Organisation tracks the real write
// counter of every block (functionally — the values feed the crypto layer)
// and reports overflow events, whose page re-encryption traffic the
// memory-controller model turns into DRAM requests (Sec. V "Baselines").
package ctr

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Overflow describes the consequence of one counter increment.
type Overflow struct {
	// Happened is true when the increment could not be represented and
	// the counter block was rebased.
	Happened bool
	// ReencryptBlocks is how many covered 64 B blocks must be read,
	// re-encrypted under the new counters, and written back.
	ReencryptBlocks int
	// Level is the metadata level the overflow occurred at (0 = data
	// counters; Fig 15 splits level-0 from higher-level overflow).
	Level int
}

// Organisation is one counter design. Block identity is a *counter block
// index* (any uint64 key — the caller uses physical block indices of the
// counter region); child identity is the offset of the protected block
// within the counter block [0, Coverage()).
type Organisation interface {
	// Name labels the design as in the paper's legends.
	Name() string
	// Coverage reports data blocks protected per 64 B counter block.
	Coverage() int
	// DecodeLatency is the extra latency to extract a counter value from
	// a fetched counter block (3 ns for Morphable, Sec. V).
	DecodeLatency() sim.Time
	// Counter reports the current write counter for child `off` of
	// counter block `blk`. Never-written blocks report 0.
	Counter(blk uint64, off int) uint64
	// Increment bumps the write counter for child `off` of counter block
	// `blk` at metadata level `level`, returning overflow consequences.
	Increment(blk uint64, off int, level int) Overflow
}

// New builds the organisation selected by the config.
func New(d config.CounterDesign) Organisation {
	switch d {
	case config.CtrMono:
		return newMono()
	case config.CtrSC64:
		return newSC64()
	case config.CtrMorphable:
		return newMorphable()
	}
	panic(fmt.Sprintf("ctr: no organisation for %v", d))
}

// ---- Monolithic: eight independent 56-bit counters per block ----

type mono struct {
	blocks map[uint64]*[8]uint64
}

func newMono() *mono { return &mono{blocks: make(map[uint64]*[8]uint64)} }

func (m *mono) Name() string            { return "mono" }
func (m *mono) Coverage() int           { return 8 }
func (m *mono) DecodeLatency() sim.Time { return 0 }

func (m *mono) Counter(blk uint64, off int) uint64 {
	if b := m.blocks[blk]; b != nil {
		return b[off]
	}
	return 0
}

func (m *mono) Increment(blk uint64, off int, level int) Overflow {
	b := m.blocks[blk]
	if b == nil {
		b = new([8]uint64)
		m.blocks[blk] = b
	}
	b[off]++
	// 2^56 writes to one block is unreachable in simulation; monolithic
	// counters never overflow here, matching the paper's treatment.
	return Overflow{}
}

// ---- SC-64: one major + 64 x 7-bit minors per block ----

type sc64Block struct {
	major  uint64
	minors [64]uint8
}

type sc64 struct {
	blocks map[uint64]*sc64Block
}

func newSC64() *sc64 { return &sc64{blocks: make(map[uint64]*sc64Block)} }

func (s *sc64) Name() string            { return "sc64" }
func (s *sc64) Coverage() int           { return 64 }
func (s *sc64) DecodeLatency() sim.Time { return 0 }

// counterValue packs (major, minor) into one 64-bit value that is unique
// per write, as counter-mode security requires: minors are < 2^32 and every
// rebase advances the major past the largest minor it retires.
func counterValue(major uint64, minor uint64) uint64 { return major<<32 | minor }

func (s *sc64) Counter(blk uint64, off int) uint64 {
	if b := s.blocks[blk]; b != nil {
		return counterValue(b.major, uint64(b.minors[off]))
	}
	return 0
}

const sc64MinorMax = 1<<7 - 1

func (s *sc64) Increment(blk uint64, off int, level int) Overflow {
	b := s.blocks[blk]
	if b == nil {
		b = &sc64Block{}
		s.blocks[blk] = b
	}
	if b.minors[off] < sc64MinorMax {
		b.minors[off]++
		return Overflow{}
	}
	// Minor overflow: rebase the whole block. All covered blocks now have
	// a new counter (major+1, 0) and must be re-encrypted — an entire
	// 4 KB page of traffic (Sec. V).
	b.major++
	for i := range b.minors {
		b.minors[i] = 0
	}
	return Overflow{Happened: true, ReencryptBlocks: 64, Level: level}
}
