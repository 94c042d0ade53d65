package cache

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/inv"
)

// geometry is one tag-store shape the reference comparison covers.
type geometry struct {
	name     string
	bytes    int64  // > 0: built with New/newRef from a byte capacity
	sets     uint64 // otherwise built with NewSets/newRefSets
	ways     int
	capBytes int64 // counter cap (0 = none)
}

// matchGeometries are the shapes the simulator builds (default config) plus
// a fully associative cache, with and without a counter cap, then
// associativities that leave padding in a set's last metadata word and the
// largest store a set's byte-wide recency order can hold. The fuzz seed
// corpus picks geometries by index: append, never reorder.
var matchGeometries = []geometry{
	{name: "l1", bytes: 64 << 10, ways: 8},                           // 128 sets
	{name: "l2", bytes: 1 << 20, ways: 8},                            // 2048 sets
	{name: "l2-emcc", bytes: 1 << 20, ways: 8, capBytes: 32 << 10},   // EMCC's 32 KB counter cap
	{name: "llc-292", sets: 292, ways: 16},                           // LLC slice, short share
	{name: "llc-293", sets: 293, ways: 16},                           // LLC slice, long share
	{name: "mc-ctr", bytes: 128 << 10, ways: 32, capBytes: 96 << 10}, // 64 sets, mc.NewHome's 3/4 cap
	{name: "1set-64way", sets: 1, ways: 64},
	{name: "1set-64way-cap", sets: 1, ways: 64, capBytes: 16 * addr.BlockBytes},
	{name: "12way-cap", sets: 97, ways: 12, capBytes: 256 * addr.BlockBytes},
	{name: "3way", bytes: 12 << 10, ways: 3}, // 64 sets
	{name: "1set-256way", sets: 1, ways: MaxWays},
}

func (g geometry) build() (*Cache, *refCache) {
	var c *Cache
	var r *refCache
	if g.bytes > 0 {
		c, r = New(g.name, g.bytes, g.ways), newRef(g.name, g.bytes, g.ways)
	} else {
		c, r = NewSets(g.name, g.sets, g.ways), newRefSets(g.name, g.sets, g.ways)
	}
	if g.capBytes > 0 {
		c.SetCounterCap(g.capBytes)
		r.SetCounterCap(g.capBytes)
	}
	return c, r
}

// op is one tag-store call; a matcher applies it to both implementations.
type op struct {
	code  uint8 // opLookup..opInvalidate
	block uint64
	dirty bool
	kind  addr.Kind
}

const (
	opLookup = iota
	opPeek
	opMarkDirty
	opMarkUsed
	opInsert
	opInvalidate
)

func (o op) String() string {
	name := [...]string{"Lookup", "Peek", "MarkDirty", "MarkUsed", "Insert", "Invalidate"}[o.code]
	if o.code == opInsert {
		return fmt.Sprintf("Insert(%#x, dirty=%v, %v)", o.block, o.dirty, o.kind)
	}
	return fmt.Sprintf("%s(%#x)", name, o.block)
}

// matcher drives a Cache and the reference in lockstep.
type matcher struct {
	t        *testing.T
	c        *Cache
	r        *refCache
	capLines int // counter cap in lines (0 = none)
	capMax   int // highest counter occupancy seen
	// overCap counts the inserts that placed a block and left counter
	// occupancy above the cap. Both stores let a counter insert at the cap
	// fill an invalid way, so this happens; each one must raise exactly
	// one checkSet violation and nothing else may.
	overCap int64
	// evictions counts the inserts that displaced a valid block, which
	// only a full set does.
	evictions int
}

// overCapNow reports whether the reference holds more counter lines than
// the cap allows.
func (m *matcher) overCapNow() bool {
	return m.capLines > 0 && m.r.KindCount(addr.KindCounter) > m.capLines
}

func newMatcher(t *testing.T, g geometry) *matcher {
	c, r := g.build()
	return &matcher{t: t, c: c, r: r, capLines: int(g.capBytes / addr.BlockBytes)}
}

func (m *matcher) apply(i int, o op) {
	m.t.Helper()
	c, r := m.c, m.r
	switch o.code {
	case opLookup:
		if got, want := c.Lookup(o.block), r.Lookup(o.block); got != want {
			m.t.Fatalf("op %d %v = %v, reference %v", i, o, got, want)
		}
	case opPeek:
		if got, want := c.Peek(o.block), r.Peek(o.block); got != want {
			m.t.Fatalf("op %d %v = %v, reference %v", i, o, got, want)
		}
	case opMarkDirty:
		if got, want := c.MarkDirty(o.block), r.MarkDirty(o.block); got != want {
			m.t.Fatalf("op %d %v = %v, reference %v", i, o, got, want)
		}
	case opMarkUsed:
		if got, want := c.MarkUsed(o.block), r.MarkUsed(o.block); got != want {
			m.t.Fatalf("op %d %v = %v, reference %v", i, o, got, want)
		}
	case opInsert:
		resident := r.Peek(o.block)
		gv, gok := c.Insert(o.block, o.dirty, o.kind)
		wv, wok := r.Insert(o.block, o.dirty, o.kind)
		if gv != wv || gok != wok {
			m.t.Fatalf("op %d %v = %+v,%v, reference %+v,%v", i, o, gv, gok, wv, wok)
		}
		if wok {
			m.evictions++
		}
		if placed := !resident && r.Peek(o.block); placed && m.overCapNow() {
			m.overCap++
		}
	case opInvalidate:
		gv, gok := c.Invalidate(o.block)
		wv, wok := r.Invalidate(o.block)
		if gv != wv || gok != wok {
			m.t.Fatalf("op %d %v = %+v,%v, reference %+v,%v", i, o, gv, gok, wv, wok)
		}
	}
	for k := addr.KindData; k <= addr.KindTree; k++ {
		if got, want := c.KindCount(k), r.KindCount(k); got != want {
			m.t.Fatalf("op %d %v: KindCount(%v) = %d, reference %d", i, o, k, got, want)
		}
	}
	if n := c.KindCount(addr.KindCounter); n > m.capMax {
		m.capMax = n
	}
}

// sameState compares the whole tag store way by way — validity, and the
// tag and flags of every valid way — then each set's recency order over its
// valid ways against the reference's stamp order, and the occupancy.
func (m *matcher) sameState(when string) {
	m.t.Helper()
	c, r := m.c, m.r
	for w, l := range r.lines {
		fps, _ := c.setMeta(uint64(w / c.ways))
		if valid := byteAt(fps, w%c.ways) != 0; valid != l.valid {
			m.t.Fatalf("%s: way %d valid=%v, reference %v", when, w, valid, l.valid)
		}
		if !l.valid {
			continue
		}
		f := c.flags[w]
		got := refLine{tag: c.tags[w], valid: true, dirty: f&flagDirty != 0, kind: addr.Kind(f & flagKind),
			lastUse: l.lastUse, usedForLLCMiss: f&flagUsed != 0}
		if got != l {
			m.t.Fatalf("%s: way %d = %+v, reference %+v", when, w, got, l)
		}
	}
	for s := uint64(0); s < c.sets; s++ {
		if got, want := recencyOrder(c, s), stampOrder(m.t, r, s); !slices.Equal(got, want) {
			m.t.Fatalf("%s: set %d recency order %v, reference stamp order %v", when, s, got, want)
		}
	}
	if got, want := c.Occupancy(), r.Occupancy(); got != want {
		m.t.Fatalf("%s: Occupancy = %d, reference %d", when, got, want)
	}
}

// recencyOrder lists the valid ways of set s as the Cache orders them,
// most recently used first.
func recencyOrder(c *Cache, s uint64) []int {
	fps, ord := c.setMeta(s)
	var out []int
	for p := 0; p < c.ways; p++ {
		if i := byteAt(ord, p); byteAt(fps, i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// stampOrder lists the valid ways of the reference's set s by descending
// LRU stamp, most recently used first. The reference gives every fill and
// hit a fresh stamp, so valid stamps are distinct and the order is total.
func stampOrder(t *testing.T, r *refCache, s uint64) []int {
	t.Helper()
	set := r.lines[s*uint64(r.ways) : (s+1)*uint64(r.ways)]
	var out []int
	for i := range set {
		if set[i].valid {
			out = append(out, i)
		}
	}
	slices.SortFunc(out, func(a, b int) int { return cmp.Compare(set[b].lastUse, set[a].lastUse) })
	for k := 1; k < len(out); k++ {
		if set[out[k]].lastUse == set[out[k-1]].lastUse {
			t.Fatalf("reference set %d: ways %d and %d share stamp %d", s, out[k-1], out[k], set[out[k]].lastUse)
		}
	}
	return out
}

// run applies ops in lockstep with a per-sequence invariant recorder
// enabled (so the gated checks run), comparing the whole state every 1024
// ops and at the end, then CheckConsistency. The only violations allowed
// are the over-cap ones the reference's own counts predict.
func (m *matcher) run(ops []op) {
	m.t.Helper()
	rec := inv.NewRecorder()
	m.c.SetRecorder(rec)
	for i, o := range ops {
		m.apply(i, o)
		if i%1024 == 1023 {
			m.sameState(fmt.Sprintf("after op %d", i))
		}
	}
	m.sameState("at end")
	err := m.c.CheckConsistency()
	if m.overCapNow() {
		if err == nil || !strings.Contains(err.Error(), "exceed cap") {
			m.t.Fatalf("CheckConsistency = %v, want the over-cap error", err)
		}
	} else if err != nil {
		m.t.Fatal(err)
	}
	if n := rec.Count(); n != m.overCap {
		m.t.Fatalf("%d invariant violations, want %d over-cap ones: %v", n, m.overCap, rec.Violations())
	}
	for _, v := range rec.Violations() {
		if !strings.Contains(v.Message, "exceed cap") {
			m.t.Fatalf("unexpected invariant violation: %v", v)
		}
	}
}

// randomOps draws a sequence over a block pool that keeps sets under
// pressure: span sets (spread over the whole index range) each see 2×ways
// distinct tags, a quarter of them mirrored to the top of the uint64 range,
// and blocks 0 and ^uint64(0) recur throughout. ctrBias is the share of
// inserts that are counters.
func randomOps(rng *rand.Rand, g geometry, sets uint64, n int, ctrBias float64) []op {
	span := sets
	if span > 128 {
		span = 128
	}
	setIdx := make([]uint64, span)
	for i := range setIdx {
		setIdx[i] = uint64(i) * (sets / span)
	}
	ops := make([]op, n)
	for i := range ops {
		var b uint64
		switch x := rng.IntN(100); {
		case x < 2:
			b = 0
		case x < 4:
			b = ^uint64(0)
		default:
			b = setIdx[rng.IntN(len(setIdx))] + sets*uint64(rng.IntN(2*g.ways))
			if rng.IntN(4) == 0 {
				b = ^b
			}
		}
		o := op{block: b}
		switch x := rng.IntN(100); {
		case x < 30:
			o.code = opLookup
		case x < 38:
			o.code = opPeek
		case x < 46:
			o.code = opMarkDirty
		case x < 54:
			o.code = opMarkUsed
		case x < 95:
			o.code = opInsert
			o.dirty = rng.IntN(3) == 0
			switch y := rng.Float64(); {
			case y < ctrBias:
				o.kind = addr.KindCounter
			case y < ctrBias+0.1:
				o.kind = addr.KindTree
			default:
				o.kind = addr.KindData
			}
		default:
			o.code = opInvalidate
		}
		ops[i] = o
	}
	return ops
}

// TestCacheMatchesReference runs seeded random call sequences through the
// fingerprinted Cache and the original array-of-structs store and requires
// identical returns, victims, kind counts, occupancy, per-way state and
// recency order, on every geometry in matchGeometries.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range matchGeometries {
		t.Run(g.name, func(t *testing.T) {
			capMax := 0
			for seed := uint64(1); seed <= 4; seed++ {
				bias := []float64{0.2, 0.5, 0.85, 0.85}[seed-1]
				rng := rand.New(rand.NewPCG(seed, 0))
				m := newMatcher(t, g)
				m.run(randomOps(rng, g, m.c.Sets(), 40000, bias))
				capMax = max(capMax, m.capMax)
				// LRU victims and the counter cap only act on full sets.
				if m.evictions == 0 {
					t.Fatalf("seed %d: no insert evicted, so no set was ever full", seed)
				}
			}
			// The counter-cap path is only exercised once the cap is full.
			if capLines := int(g.capBytes / addr.BlockBytes); capLines > 0 && capMax < capLines {
				t.Fatalf("counter occupancy peaked at %d lines, never reached the %d-line cap", capMax, capLines)
			}
		})
	}
}

// decodeOps turns fuzz bytes into a call sequence, three bytes per op:
// b0's low three bits select the call (inserts of all three kinds) and its
// top bit the dirty flag, b1 picks one of 64 sets and whether to mirror the
// block to the top of the uint64 range, and b2 with b1's bit 6 picks one of
// 512 tags in that set, enough to overfill a MaxWays set. Block 0 is
// (0,0,0), ^uint64(0) its mirror.
func decodeOps(sets uint64, data []byte) []op {
	const maxOps = 4096
	n := min(len(data)/3, maxOps)
	ops := make([]op, n)
	for i := range ops {
		b0, b1, b2 := data[3*i], data[3*i+1], data[3*i+2]
		block := uint64(b1&0x3f)%sets + sets*(uint64(b1&0x40)<<2|uint64(b2))
		if b1&0x80 != 0 {
			block = ^block
		}
		o := op{block: block, dirty: b0&0x80 != 0}
		switch code := b0 & 7; code {
		case 4, 5, 6:
			o.code = opInsert
			o.kind = addr.Kind(code - 4)
		case 7:
			o.code = opInvalidate
		default:
			o.code = code
		}
		ops[i] = o
	}
	return ops
}

// FuzzCacheMatchesReference feeds fuzzer-chosen call sequences to both
// tag stores on any of matchGeometries and requires the same observable
// behaviour and per-way state. The seed corpus is in testdata/fuzz.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, geo uint8, data []byte) {
		m := newMatcher(t, matchGeometries[int(geo)%len(matchGeometries)])
		m.run(decodeOps(m.c.Sets(), data))
	})
}
