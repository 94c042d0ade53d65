package ctr

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"
)

// incOp is one morphable increment.
type incOp struct {
	blk   uint64
	off   int
	level int
}

// morphMatcher drives the running-count morphable and the rescanning
// reference in lockstep.
type morphMatcher struct {
	t       *testing.T
	m       *morphable
	r       *refMorphable
	touched map[uint64]map[int]bool // children incremented so far, by block
	// widths[w] counts increments that left a block in the ZCC format of
	// width w; rebases[w] counts the rebases whose increment took the
	// block's widest minor to w bits.
	widths  [33]int
	rebases [33]int
}

func newMorphMatcher(t *testing.T) *morphMatcher {
	return &morphMatcher{t: t, m: newMorphable(), r: newRefMorphable(), touched: map[uint64]map[int]bool{}}
}

// apply runs one increment through both and compares the overflow, the
// child's counter and the block's image.
func (mm *morphMatcher) apply(i int, o incOp) {
	mm.t.Helper()
	// The block's format width once this increment lands, before any
	// rebase.
	var next [128]uint32
	if b := mm.r.blocks[o.blk]; b != nil {
		next = b.minors
	}
	next[o.off]++
	width := bits.Len32(slices.Max(next[:]))
	got := mm.m.Increment(o.blk, o.off, o.level)
	want := mm.r.Increment(o.blk, o.off, o.level)
	if got != want {
		mm.t.Fatalf("op %d Increment(%d, %d, %d) = %+v, reference %+v", i, o.blk, o.off, o.level, got, want)
	}
	if mm.touched[o.blk] == nil {
		mm.touched[o.blk] = map[int]bool{}
	}
	mm.touched[o.blk][o.off] = true
	if got.Happened {
		mm.rebases[width]++
	} else if width > uniformBits {
		mm.widths[width]++
	}
	if g, w := mm.m.Counter(o.blk, o.off), mm.r.Counter(o.blk, o.off); g != w {
		mm.t.Fatalf("op %d: Counter(%d, %d) = %#x, reference %#x", i, o.blk, o.off, g, w)
	}
	mm.sameImage(i, o.blk)
}

func (mm *morphMatcher) sameImage(i int, blk uint64) {
	mm.t.Helper()
	var got, want [SerializedBytes]byte
	mm.m.Serialize(blk, &got)
	mm.r.Serialize(blk, &want)
	if got != want {
		mm.t.Fatalf("op %d: Serialize(%d) = %x, reference %x", i, blk, got, want)
	}
}

// sameState compares the counter of every touched child and the image of
// every touched block.
func (mm *morphMatcher) sameState(i int) {
	mm.t.Helper()
	for blk, offs := range mm.touched {
		for off := range offs {
			if g, w := mm.m.Counter(blk, off), mm.r.Counter(blk, off); g != w {
				mm.t.Fatalf("after op %d: Counter(%d, %d) = %#x, reference %#x", i, blk, off, g, w)
			}
		}
		mm.sameImage(i, blk)
	}
}

func (mm *morphMatcher) run(ops []incOp) {
	mm.t.Helper()
	for i, o := range ops {
		mm.apply(i, o)
		if i%1024 == 1023 {
			mm.sameState(i)
		}
	}
	mm.sameState(len(ops))
}

// randomIncs draws increments over four blocks: a share hot of them hit
// one of four hot children, the rest any child, so hot minors widen while
// the spread ones fill the ZCC slots.
func randomIncs(rng *rand.Rand, n int, hot float64) []incOp {
	ops := make([]incOp, n)
	for i := range ops {
		off := rng.IntN(128)
		if rng.Float64() < hot {
			off = rng.IntN(4) * 37
		}
		ops[i] = incOp{blk: uint64(rng.IntN(4)), off: off, level: rng.IntN(3)}
	}
	return ops
}

// TestMorphableMatchesReference runs seeded random increments through the
// running-count morphable and the rescanning reference and requires the
// same overflows, counters and images. The seeds must between them widen
// minors through ZCC widths 5, 6 and 7, and rebase as the widest minor
// leaves the uniform format (width 4) and as it reaches each of those
// widths.
func TestMorphableMatchesReference(t *testing.T) {
	mm := newMorphMatcher(t)
	for seed, hot := range []float64{0.3, 0.6, 0.85, 0.95, 0.99} {
		rng := rand.New(rand.NewPCG(uint64(seed)+1, 0))
		mm.run(randomIncs(rng, 30000, hot))
	}
	for _, w := range []int{5, 6, 7} {
		if mm.widths[w] == 0 {
			t.Errorf("no increment left a block at ZCC width %d", w)
		}
	}
	for _, w := range []int{4, 5, 6, 7} {
		if mm.rebases[w] == 0 {
			t.Errorf("no rebase at width %d: rebases by width %v", w, mm.rebases)
		}
	}
}

// decodeIncs turns fuzz bytes into increments, two bytes per op: b0's low
// two bits pick one of four blocks and its next two the level, b1's low
// seven bits the child.
func decodeIncs(data []byte) []incOp {
	const maxOps = 8192
	ops := make([]incOp, min(len(data)/2, maxOps))
	for i := range ops {
		b0, b1 := data[2*i], data[2*i+1]
		ops[i] = incOp{blk: uint64(b0 & 3), off: int(b1 & 0x7f), level: int(b0>>2) & 3}
	}
	return ops
}

// FuzzMorphableMatchesReference feeds fuzzer-chosen increments to both
// morphable implementations and requires the same overflows, counters and
// images. The seed corpus in testdata/fuzz widens one minor across ZCC
// widths 5, 6 and 7 and rebases as it leaves the uniform format and at
// each of those widths.
func FuzzMorphableMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		newMorphMatcher(t).run(decodeIncs(data))
	})
}
