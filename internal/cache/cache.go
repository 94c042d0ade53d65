// Package cache provides the functional set-associative cache model used
// for every cache in the hierarchy (L1, L2, LLC slices, the MC's counter
// cache). Caches here are tag stores: hit/miss/eviction/invalidation logic
// with LRU replacement, block-kind accounting and the per-kind occupancy
// cap EMCC imposes on counters in L2 (Sec. V: "EMCC only caches 32KB worth
// of counters in L2"). All timing lives in the hierarchy model.
package cache

import (
	"fmt"

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

// Cache is a set-associative tag store laid out as parallel arrays, one
// entry per way, set-major. A probe scans only the set's tags. A way is
// valid iff its LRU stamp is non-zero: the global stamp advances before
// every assignment, so a filled way's stamp is at least 1, and Invalidate
// zeroes it. A matching tag is a hit only if its way is valid, so every
// uint64 block, 0 and ^uint64(0) included, is representable. The stamp is
// read when a tag matches or a victim is picked, the flag byte only when a
// call needs a way's kind, dirty or used bit.
//
// Not safe for concurrent use. Runs execute concurrently under -j, but
// each cache belongs to one run and is driven from one goroutine.
type Cache struct {
	name string
	sets uint64
	ways int

	tags    []uint64 // block index (full address >> 6) per way
	lastUse []uint64 // LRU stamp per way; 0 marks an invalid way
	flags   []uint8  // kind | flagDirty | flagUsed per way

	stamp   uint64
	kindCnt [numKinds]int

	// ctrCapLines, when positive, caps how many lines may hold
	// counter-kind blocks; inserting past the cap evicts the LRU
	// counter line instead of the global LRU (EMCC's 32 KB rule).
	ctrCapLines int

	// rec is the owning run's invariant recorder (never nil; defaults to
	// the process-wide recorder until SetRecorder rebinds it).
	rec *inv.Recorder
}

// New builds a cache of capacityBytes with the given associativity over
// 64 B blocks. Capacity must divide evenly into sets.
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
	n := sets * uint64(ways)
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		tags:    make([]uint64, n),
		lastUse: make([]uint64, n),
		flags:   make([]uint8, n),
		rec:     inv.Default(),
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

// SetRecorder binds the owning run's invariant recorder (nil rebinds the
// default). Call at construction time, before any traffic.
func (c *Cache) SetRecorder(r *inv.Recorder) { c.rec = inv.Or(r) }

// SetCounterCap caps counter-kind occupancy to capBytes worth of lines.
func (c *Cache) SetCounterCap(capBytes int64) {
	c.ctrCapLines = int(capBytes / addr.BlockBytes)
}

// Name reports the cache's label.
func (c *Cache) Name() string { return c.name }

// Ways reports associativity.
func (c *Cache) Ways() int { return c.ways }

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

// find returns the way (an index into the per-way arrays) holding block in
// the set whose first way is base, or -1 when the block is not resident.
func (c *Cache) find(base, block uint64) int {
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == block && c.lastUse[base+uint64(i)] != 0 {
			return int(base) + i
		}
	}
	return -1
}

// lookup is find over block's own set.
func (c *Cache) lookup(block uint64) int {
	return c.find(c.setOf(block)*uint64(c.ways), block)
}

// victimAt reports the block held in way w as a Victim.
func (c *Cache) victimAt(w int) Victim {
	f := c.flags[w]
	return Victim{Block: c.tags[w], Dirty: f&flagDirty != 0, Kind: addr.Kind(f & flagKind), WasUsed: f&flagUsed != 0}
}

// Lookup probes for a block, updating LRU on hit.
func (c *Cache) Lookup(block uint64) bool {
	w := c.lookup(block)
	if w < 0 {
		return false
	}
	c.stamp++
	c.lastUse[w] = c.stamp
	return true
}

// Peek probes without updating LRU.
func (c *Cache) Peek(block uint64) bool { return c.lookup(block) >= 0 }

// MarkDirty sets the dirty bit of a resident block; reports residency.
func (c *Cache) MarkDirty(block uint64) bool {
	w := c.lookup(block)
	if w < 0 {
		return false
	}
	c.flags[w] |= flagDirty
	return true
}

// MarkUsed flags a resident counter block as having served an LLC data
// miss (Fig 11 accounting); reports residency.
func (c *Cache) MarkUsed(block uint64) bool {
	w := c.lookup(block)
	if w < 0 {
		return false
	}
	c.flags[w] |= flagUsed
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
	base := c.setOf(block) * uint64(c.ways)
	c.stamp++
	// Already resident?
	if w := c.find(base, block); w >= 0 {
		c.lastUse[w] = c.stamp
		if dirty {
			c.flags[w] |= flagDirty
		}
		return Victim{}, false
	}
	w := c.pickVictim(base, kind)
	if w < 0 {
		return Victim{}, false // counter insert dropped at cap
	}
	var out Victim
	evicted := false
	if c.lastUse[w] != 0 {
		out = c.victimAt(w)
		evicted = true
		c.kindCnt[out.Kind]--
	}
	c.kindCnt[kind]++
	f := uint8(kind)
	if dirty {
		f |= flagDirty
	}
	c.tags[w] = block
	c.lastUse[w] = c.stamp
	c.flags[w] = f
	if c.rec.On() {
		c.checkSet(base, block)
	}
	return out, evicted
}

// checkSet validates the per-set invariants after a mutation: a block is
// resident in at most one way, LRU stamps never run ahead of the global
// stamp, and counter occupancy respects the configured cap. O(ways), gated.
func (c *Cache) checkSet(base, block uint64) {
	rec := c.rec
	if !rec.On() {
		return
	}
	seen := 0
	for w := base; w < base+uint64(c.ways); w++ {
		if c.lastUse[w] == 0 {
			continue
		}
		if c.tags[w] == block {
			seen++
		}
		if c.lastUse[w] > c.stamp {
			rec.Failf("cache", "%s: line lastUse %d ahead of global stamp %d", c.name, c.lastUse[w], c.stamp)
		}
	}
	if seen > 1 {
		rec.Failf("cache", "%s: block %#x resident in %d ways of one set", c.name, block, seen)
	}
	if c.ctrCapLines > 0 && c.kindCnt[addr.KindCounter] > c.ctrCapLines {
		rec.Failf("cache", "%s: %d counter lines exceed cap %d", c.name, c.kindCnt[addr.KindCounter], c.ctrCapLines)
	}
}

// CheckConsistency fully rescans the tag store and cross-checks the
// per-kind occupancy ledger, the counter cap and intra-set tag uniqueness.
// O(capacity): the verification harness calls it after a run; it is not for
// per-access use.
func (c *Cache) CheckConsistency() error {
	var recount [numKinds]int
	for s := uint64(0); s < c.sets; s++ {
		base := s * uint64(c.ways)
		tags := make(map[uint64]int)
		for w := base; w < base+uint64(c.ways); w++ {
			if c.lastUse[w] == 0 {
				continue
			}
			tag := c.tags[w]
			recount[c.flags[w]&flagKind]++
			tags[tag]++
			if c.setOf(tag) != s {
				return fmt.Errorf("cache %s: block %#x stored in set %d, maps to set %d", c.name, tag, s, c.setOf(tag))
			}
			if c.lastUse[w] > c.stamp {
				return fmt.Errorf("cache %s: line lastUse %d ahead of global stamp %d", c.name, c.lastUse[w], c.stamp)
			}
		}
		for tag, n := range tags {
			if n > 1 {
				return fmt.Errorf("cache %s: block %#x resident in %d ways of set %d", c.name, tag, n, s)
			}
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

// pickVictim chooses the way to replace in the set whose first way is
// base: an invalid way first; otherwise, if inserting a counter at the
// counter cap, the LRU *counter* way in this set — or no way at all (-1,
// insert dropped) when the set has none; otherwise global LRU. LRU ties go
// to the lowest way.
func (c *Cache) pickVictim(base uint64, kind addr.Kind) int {
	lru := c.lastUse[base : base+uint64(c.ways)]
	// One pass finds both: invalid ways carry stamp 0 and valid ones at
	// least 1, so the first minimum is the first invalid way if there is
	// one, and the LRU way otherwise. Valid stamps are distinct, so the
	// comparisons are unpredictable: keep the scan free of branches.
	best, oldest := 0, lru[0]
	for i := 1; i < len(lru); i++ {
		v := lru[i]
		older := v < oldest
		if older {
			oldest = v
		}
		if older {
			best = i
		}
	}
	if oldest != 0 && c.ctrCapLines > 0 && kind == addr.KindCounter && c.kindCnt[addr.KindCounter] >= c.ctrCapLines {
		flags := c.flags[base : base+uint64(len(lru))]
		best = -1
		for i, f := range flags {
			if addr.Kind(f&flagKind) == addr.KindCounter && (best < 0 || lru[i] < lru[best]) {
				best = i
			}
		}
		if best < 0 {
			return -1
		}
	}
	return int(base) + best
}

// Invalidate removes a block; reports whether it was resident and returns
// its pre-invalidation state (for writeback-on-invalidate policies and the
// Fig 23 accounting).
func (c *Cache) Invalidate(block uint64) (Victim, bool) {
	w := c.lookup(block)
	if w < 0 {
		return Victim{}, false
	}
	v := c.victimAt(w)
	if rec := c.rec; rec.On() && c.kindCnt[v.Kind] <= 0 {
		rec.Failf("cache", "%s: invalidating %v block %#x with non-positive kind ledger %d", c.name, v.Kind, block, c.kindCnt[v.Kind])
	}
	c.kindCnt[v.Kind]--
	c.tags[w], c.lastUse[w], c.flags[w] = 0, 0, 0
	return v, true
}

// Occupancy reports the number of valid lines (for tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.lastUse {
		if t != 0 {
			n++
		}
	}
	return n
}
