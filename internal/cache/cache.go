// Package cache provides the functional set-associative cache model used
// for every cache in the hierarchy (L1, L2, LLC slices, the MC's counter
// cache). Caches here are tag stores: hit/miss/eviction/invalidation logic
// with LRU replacement, block-kind accounting and the per-kind occupancy
// cap EMCC imposes on counters in L2 (Sec. V: "EMCC only caches 32KB worth
// of counters in L2"). All timing lives in the hierarchy model.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/inv"
)

// Per-way flag bits. The low two bits hold the block's addr.Kind.
const (
	flagKind  uint8 = 0x3
	flagDirty uint8 = 1 << 2
	// flagUsed supports the Fig 11 accounting: a counter block
	// speculatively fetched into L2 was "useless" if it is evicted
	// without ever serving a data miss that also missed in LLC.
	flagUsed uint8 = 1 << 3
)

// numKinds sizes the kind ledger: every kind the flag byte can hold.
const numKinds = int(flagKind) + 1

// Victim describes an evicted block.
type Victim struct {
	Block uint64
	Dirty bool
	Kind  addr.Kind
	// WasUsed reports whether the block served an LLC data miss while
	// resident (flagUsed at eviction; Fig 11 stat).
	WasUsed bool
}

// MaxWays is the largest associativity a Cache holds: each set's recency
// order keeps way indexes in bytes.
const MaxWays = 256

// SWAR constants: the low and the high bit of every byte of a word.
const (
	loBytes uint64 = 0x0101010101010101
	hiBytes uint64 = 0x8080808080808080
)

// Cache is a set-associative tag store laid out as parallel arrays, one
// entry per way, set-major, plus per-set metadata words.
//
// Each set keeps one fingerprint byte per way: 0 marks an invalid way, and
// a valid way holds its block's non-zero fingerprint. A probe matches the
// fingerprint against 8 ways per word and reads a tag only where it
// matches, so a miss reads no tags. A tag is a hit only on a way whose
// fingerprint matches, so every uint64 block, 0 and ^uint64(0) included,
// is representable.
//
// Each set also keeps its recency order: a byte permutation of its ways,
// most recently used first. A hit or a fill moves the way to the front, so
// the last entry is the LRU way. An untouched set's order is all zero
// bytes until its first fill, which sets it to the identity.
//
// Not safe for concurrent use. Runs execute concurrently under -j, but
// each cache belongs to one run and is driven from one goroutine.
type Cache struct {
	name  string
	sets  uint64
	ways  int
	words int // words per set of fingerprints, and of recency order

	tags  []uint64 // block index (full address >> 6) per way
	flags []uint8  // kind | flagDirty | flagUsed per way
	// meta holds each set's fingerprint words followed by its recency-order
	// words, 2*words per set. Byte b of word j is way (or position) 8j+b;
	// the bytes past the last way stay zero.
	meta []uint64

	kindCnt [numKinds]int

	// ctrCapLines, when positive, caps how many lines may hold
	// counter-kind blocks; inserting past the cap evicts the LRU
	// counter line instead of the global LRU (EMCC's 32 KB rule).
	ctrCapLines int

	// rec is the owning run's invariant recorder (nil, checking off, until
	// SetRecorder binds one).
	rec *inv.Recorder
}

// New builds a cache of capacityBytes with the given associativity over
// 64 B blocks. Capacity must divide evenly into sets, and ways must not
// exceed MaxWays.
func New(name string, capacityBytes int64, ways int) *Cache {
	if capacityBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %dB/%d-way", name, capacityBytes, ways))
	}
	blocks := capacityBytes / addr.BlockBytes
	if blocks%int64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: %d blocks not divisible by %d ways", name, blocks, ways))
	}
	sets := uint64(blocks) / uint64(ways)
	if sets == 0 {
		panic(fmt.Sprintf("cache %s: zero sets", name))
	}
	return newCache(name, sets, ways)
}

// NewSets builds a cache with an explicit set count (the sliced-LLC shards
// carry uneven set shares, so their geometry is given in sets, not bytes).
func NewSets(name string, sets uint64, ways int) *Cache {
	if sets == 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %d sets/%d-way", name, sets, ways))
	}
	return newCache(name, sets, ways)
}

func newCache(name string, sets uint64, ways int) *Cache {
	if ways > MaxWays {
		panic(fmt.Sprintf("cache %s: %d ways exceed the %d-way limit", name, ways, MaxWays))
	}
	n := sets * uint64(ways)
	words := (ways + 7) / 8
	return &Cache{
		name:  name,
		sets:  sets,
		ways:  ways,
		words: words,
		tags:  make([]uint64, n),
		flags: make([]uint8, n),
		meta:  make([]uint64, sets*uint64(2*words)),
	}
}

// SplitSets partitions total sets across n shards: total/n each, with the
// remainder spread over the first shards and a floor of one set — the one
// canonical split the timing and functional LLC slicings must share so
// their contents stay comparable.
func SplitSets(total uint64, n int) []uint64 {
	out := make([]uint64, n)
	base, rem := total/uint64(n), int(total%uint64(n))
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
		if out[i] == 0 {
			out[i] = 1
		}
	}
	return out
}

// SetRecorder binds the owning run's invariant recorder (nil turns
// checking off). Call at construction time, before any traffic.
func (c *Cache) SetRecorder(r *inv.Recorder) { c.rec = r }

// SetCounterCap caps counter-kind occupancy to capBytes worth of lines.
func (c *Cache) SetCounterCap(capBytes int64) {
	c.ctrCapLines = int(capBytes / addr.BlockBytes)
}

// Name reports the cache's label.
func (c *Cache) Name() string { return c.name }

// Sets reports the number of sets.
func (c *Cache) Sets() uint64 { return c.sets }

// KindCount reports how many lines currently hold blocks of kind k.
func (c *Cache) KindCount(k addr.Kind) int {
	if k < 0 || int(k) >= numKinds {
		return 0
	}
	return c.kindCnt[k]
}

// setOf maps a block to its set index.
func (c *Cache) setOf(block uint64) uint64 { return block % c.sets }

// fingerprint is the byte a valid way holding block keeps: the top byte of
// a multiplicative hash of the block, never 0 (0 marks an invalid way).
func fingerprint(block uint64) uint8 {
	f := uint8((block * 0x9E3779B97F4A7C15) >> 56)
	if f == 0 {
		f = 1
	}
	return f
}

// zeroBytes flags, in its byte's high bit, each zero byte of x. The lowest
// flag is exact; a higher one may also flag a 0x01 byte just above a zero
// byte (the subtraction's borrow), so a caller that reads past the lowest
// flag confirms the byte.
func zeroBytes(x uint64) uint64 { return (x - loBytes) &^ x & hiBytes }

// setMeta returns set s's fingerprint words and recency-order words.
func (c *Cache) setMeta(s uint64) (fps, ord []uint64) {
	m := c.meta[int(s)*2*c.words : (int(s)+1)*2*c.words]
	return m[:c.words], m[c.words:]
}

// byteAt reads byte p of a set's fingerprint or recency-order words.
func byteAt(words []uint64, p int) int { return int(uint8(words[p>>3] >> (uint(p&7) * 8))) }

// setFingerprint stores f as the fingerprint of way i of set s; 0 marks the
// way invalid.
func (c *Cache) setFingerprint(s uint64, i int, f uint8) {
	j := int(s)*2*c.words + i>>3
	sh := uint(i&7) * 8
	c.meta[j] = c.meta[j]&^(0xff<<sh) | uint64(f)<<sh
}

// find returns the index within set s of the way holding block, or -1 when
// the block is not resident. It compares the block's fingerprint with 8
// ways per word and reads a tag only where the fingerprint matches.
func (c *Cache) find(s, block uint64) int {
	fps, _ := c.setMeta(s)
	tags := c.tags[int(s)*c.ways:]
	pat := uint64(fingerprint(block)) * loBytes
	for j, f := range fps {
		x := f ^ pat
		for m := zeroBytes(x); m != 0; m &= m - 1 {
			k := uint(bits.TrailingZeros64(m)) &^ 7
			// Only a zero byte of x is a fingerprint match: a borrow flag
			// can sit on an invalid way or on padding past the last way.
			if i := 8*j + int(k>>3); uint8(x>>k) == 0 && tags[i] == block {
				return i
			}
		}
	}
	return -1
}

// lookup is find over block's own set. It returns the set and the way's
// index within it (-1 when the block is not resident).
func (c *Cache) lookup(block uint64) (uint64, int) {
	s := c.setOf(block)
	return s, c.find(s, block)
}

// touch moves way i of set s to the front of the set's recency order. It
// shifts every position ahead of i up by one a word at a time. The order
// must hold i, as it does once the set has been filled.
func (c *Cache) touch(s uint64, i int) {
	_, ord := c.setMeta(s)
	pat := uint64(i) * loBytes
	carry := uint64(i)
	for j, v := range ord {
		m := zeroBytes(v ^ pat)
		if m == 0 {
			ord[j] = v<<8 | carry
			carry = v >> 56
			continue
		}
		// The lowest flag is exact: i is byte k/8 of this word. The bytes
		// below it move up one, the bytes above it stay.
		k := uint(bits.TrailingZeros64(m)) &^ 7
		ord[j] = v&(^uint64(0)<<(k+8)) | (v&(1<<k-1))<<8 | carry
		return
	}
}

// victimAt reports the block held in way w as a Victim.
func (c *Cache) victimAt(w int) Victim {
	f := c.flags[w]
	return Victim{Block: c.tags[w], Dirty: f&flagDirty != 0, Kind: addr.Kind(f & flagKind), WasUsed: f&flagUsed != 0}
}

// Lookup probes for a block, updating LRU on hit.
func (c *Cache) Lookup(block uint64) bool {
	s, i := c.lookup(block)
	if i < 0 {
		return false
	}
	c.touch(s, i)
	return true
}

// Peek probes without updating LRU.
func (c *Cache) Peek(block uint64) bool {
	_, i := c.lookup(block)
	return i >= 0
}

// MarkDirty sets the dirty bit of a resident block; reports residency.
func (c *Cache) MarkDirty(block uint64) bool {
	s, i := c.lookup(block)
	if i < 0 {
		return false
	}
	c.flags[int(s)*c.ways+i] |= flagDirty
	return true
}

// MarkUsed flags a resident counter block as having served an LLC data
// miss (Fig 11 accounting); reports residency.
func (c *Cache) MarkUsed(block uint64) bool {
	s, i := c.lookup(block)
	if i < 0 {
		return false
	}
	c.flags[int(s)*c.ways+i] |= flagUsed
	return true
}

// Insert places a block, evicting if needed, and returns the victim (ok
// reports whether a valid block was displaced). Inserting a block that is
// already resident refreshes its LRU/dirty state instead.
//
// When a counter cap is configured and the cache is at it, a counter
// insertion replaces the LRU counter of its set; if the set holds no
// counter, the insertion is dropped — the budget is a hard partition, so
// counters can never displace more data than the cap allows (Sec. V).
// An invalid way is still filled first, so while a cache has free ways
// (the cold fill) counter occupancy can pass the cap; the inv-gated
// checkSet reports each such insert.
func (c *Cache) Insert(block uint64, dirty bool, kind addr.Kind) (Victim, bool) {
	s := c.setOf(block)
	base := int(s) * c.ways
	// Already resident?
	if i := c.find(s, block); i >= 0 {
		c.touch(s, i)
		if dirty {
			c.flags[base+i] |= flagDirty
		}
		return Victim{}, false
	}
	i, evicted := c.pickVictim(s, kind)
	if i < 0 {
		return Victim{}, false // counter insert dropped at cap
	}
	w := base + i
	var out Victim
	if evicted {
		out = c.victimAt(w)
		c.kindCnt[out.Kind]--
	}
	c.kindCnt[kind]++
	f := uint8(kind)
	if dirty {
		f |= flagDirty
	}
	c.tags[w] = block
	c.flags[w] = f
	c.setFingerprint(s, i, fingerprint(block))
	if _, ord := c.setMeta(s); ord[0] == 0 {
		// First fill of the set: every valid permutation of two or more
		// ways has a non-zero first word, so the order is still untouched.
		for j := range ord {
			v := 0x0706050403020100 + uint64(8*j)*loBytes
			if n := c.ways - 8*j; n < 8 {
				v &= 1<<(8*uint(n)) - 1
			}
			ord[j] = v
		}
	}
	c.touch(s, i)
	if c.rec.On() {
		c.checkSet(s, block)
	}
	return out, evicted
}

// pickVictim chooses the way of set s to replace and reports whether it
// holds a valid block: the lowest-index invalid way first; otherwise, if
// inserting a counter at the counter cap, the LRU *counter* way in this set
// — or no way at all (-1, insert dropped) when the set has none; otherwise
// the LRU way, the last in the recency order.
func (c *Cache) pickVictim(s uint64, kind addr.Kind) (int, bool) {
	fps, ord := c.setMeta(s)
	for j, f := range fps {
		if m := zeroBytes(f); m != 0 {
			// The lowest flag is exact; past the last way it is padding,
			// and every way is valid.
			if i := 8*j + bits.TrailingZeros64(m)>>3; i < c.ways {
				return i, false
			}
			break
		}
	}
	last := c.ways - 1
	if c.ctrCapLines > 0 && kind == addr.KindCounter && c.kindCnt[addr.KindCounter] >= c.ctrCapLines {
		flags := c.flags[int(s)*c.ways : (int(s)+1)*c.ways]
		for p := last; p >= 0; p-- {
			if i := byteAt(ord, p); addr.Kind(flags[i]&flagKind) == addr.KindCounter {
				return i, true
			}
		}
		return -1, false
	}
	return byteAt(ord, last), true
}

// orderIsPermutation reports whether set s's recency order holds each of
// its ways exactly once.
func (c *Cache) orderIsPermutation(s uint64) bool {
	_, ord := c.setMeta(s)
	var seen [MaxWays]bool
	for p := 0; p < c.ways; p++ {
		i := byteAt(ord, p)
		if i >= c.ways || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

// checkSet validates the per-set invariants after a fill: a block is
// resident in at most one way, the set's recency order is a permutation of
// its ways, and counter occupancy respects the configured cap. O(ways),
// gated.
func (c *Cache) checkSet(s, block uint64) {
	rec := c.rec
	if !rec.On() {
		return
	}
	fps, _ := c.setMeta(s)
	seen := 0
	for i := 0; i < c.ways; i++ {
		if byteAt(fps, i) != 0 && c.tags[int(s)*c.ways+i] == block {
			seen++
		}
	}
	if seen > 1 {
		rec.Failf("cache", "%s: block %#x resident in %d ways of one set", c.name, block, seen)
	}
	if !c.orderIsPermutation(s) {
		rec.Failf("cache", "%s: set %d recency order is not a permutation of its %d ways", c.name, s, c.ways)
	}
	if c.ctrCapLines > 0 && c.kindCnt[addr.KindCounter] > c.ctrCapLines {
		rec.Failf("cache", "%s: %d counter lines exceed cap %d", c.name, c.kindCnt[addr.KindCounter], c.ctrCapLines)
	}
}

// CheckConsistency fully rescans the tag store and cross-checks the
// per-kind occupancy ledger, the counter cap, intra-set tag uniqueness,
// each valid way's fingerprint and each non-empty set's recency order.
// O(capacity): the verification harness calls it after a run; it is not
// for per-access use.
func (c *Cache) CheckConsistency() error {
	var recount [numKinds]int
	for s := uint64(0); s < c.sets; s++ {
		base := int(s) * c.ways
		fps, _ := c.setMeta(s)
		tags := make(map[uint64]int)
		for i := 0; i < c.ways; i++ {
			fp := byteAt(fps, i)
			if fp == 0 {
				continue
			}
			tag := c.tags[base+i]
			recount[c.flags[base+i]&flagKind]++
			tags[tag]++
			if c.setOf(tag) != s {
				return fmt.Errorf("cache %s: block %#x stored in set %d, maps to set %d", c.name, tag, s, c.setOf(tag))
			}
			if want := int(fingerprint(tag)); fp != want {
				return fmt.Errorf("cache %s: block %#x in set %d has fingerprint %#x, want %#x", c.name, tag, s, fp, want)
			}
		}
		for tag, n := range tags {
			if n > 1 {
				return fmt.Errorf("cache %s: block %#x resident in %d ways of set %d", c.name, tag, n, s)
			}
		}
		if len(tags) > 0 && !c.orderIsPermutation(s) {
			return fmt.Errorf("cache %s: set %d recency order is not a permutation of its %d ways", c.name, s, c.ways)
		}
	}
	for k, n := range recount {
		if c.kindCnt[k] != n {
			return fmt.Errorf("cache %s: kind %v ledger says %d lines, tag store holds %d", c.name, addr.Kind(k), c.kindCnt[k], n)
		}
	}
	if c.ctrCapLines > 0 && c.kindCnt[addr.KindCounter] > c.ctrCapLines {
		return fmt.Errorf("cache %s: %d counter lines exceed cap %d", c.name, c.kindCnt[addr.KindCounter], c.ctrCapLines)
	}
	return nil
}

// Invalidate removes a block; reports whether it was resident and returns
// its pre-invalidation state (for writeback-on-invalidate policies and the
// Fig 23 accounting). The way keeps its place in the recency order; the
// next fill of the set takes the lowest-index invalid way regardless.
func (c *Cache) Invalidate(block uint64) (Victim, bool) {
	s, i := c.lookup(block)
	if i < 0 {
		return Victim{}, false
	}
	w := int(s)*c.ways + i
	v := c.victimAt(w)
	if rec := c.rec; rec.On() && c.kindCnt[v.Kind] <= 0 {
		rec.Failf("cache", "%s: invalidating %v block %#x with non-positive kind ledger %d", c.name, v.Kind, block, c.kindCnt[v.Kind])
	}
	c.kindCnt[v.Kind]--
	c.tags[w], c.flags[w] = 0, 0
	c.setFingerprint(s, i, 0)
	return v, true
}

// Occupancy reports the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for s := uint64(0); s < c.sets; s++ {
		fps, _ := c.setMeta(s)
		for i := 0; i < c.ways; i++ {
			if byteAt(fps, i) != 0 {
				n++
			}
		}
	}
	return n
}
