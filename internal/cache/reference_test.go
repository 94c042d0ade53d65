package cache

import (
	"fmt"

	"repro/internal/addr"
)

// This file keeps the original array-of-structs tag store (one 40 B struct
// per way, a map for the kind ledger) as the reference the
// structure-of-arrays Cache is checked against. The probe, insert, victim
// and invalidate code is the old implementation unchanged except for
// names: Cache became refCache, line became refLine, New/NewSets became
// newRef/newRefSets. The inv-gated self-checks, CheckConsistency and the
// plain accessors are left out; they observe the tag store without
// changing it. Victim, the counter-cap rule, the LRU tie-break and the
// stamp sequence are the behaviour under test; do not "improve" this copy.

// refLine is one cache way.
type refLine struct {
	tag     uint64 // block index (full address >> 6); sets are by index bits
	valid   bool
	dirty   bool
	kind    addr.Kind
	lastUse uint64 // LRU stamp
	// usedForLLCMiss supports the Fig 11 accounting: a counter block
	// speculatively fetched into L2 was "useless" if it is evicted
	// without ever serving a data miss that also missed in LLC.
	usedForLLCMiss bool
}

// refCache is a set-associative tag store.
type refCache struct {
	name    string
	sets    uint64
	ways    int
	lines   []refLine // sets*ways, set-major
	stamp   uint64
	kindCnt map[addr.Kind]int

	// ctrCapLines, when positive, caps how many lines may hold
	// counter-kind blocks; inserting past the cap evicts the LRU
	// counter line instead of the global LRU (EMCC's 32 KB rule).
	ctrCapLines int
}

// newRef builds a cache of capacityBytes with the given associativity over
// 64 B blocks. Capacity must divide evenly into sets.
func newRef(name string, capacityBytes int64, ways int) *refCache {
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
	return &refCache{
		name:    name,
		sets:    sets,
		ways:    ways,
		lines:   make([]refLine, sets*uint64(ways)),
		kindCnt: make(map[addr.Kind]int),
	}
}

// newRefSets builds a cache with an explicit set count.
func newRefSets(name string, sets uint64, ways int) *refCache {
	if sets == 0 || ways <= 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry %d sets/%d-way", name, sets, ways))
	}
	return &refCache{
		name:    name,
		sets:    sets,
		ways:    ways,
		lines:   make([]refLine, sets*uint64(ways)),
		kindCnt: make(map[addr.Kind]int),
	}
}

// SetCounterCap caps counter-kind occupancy to capBytes worth of lines.
func (c *refCache) SetCounterCap(capBytes int64) {
	c.ctrCapLines = int(capBytes / addr.BlockBytes)
}

// KindCount reports how many lines currently hold blocks of kind k.
func (c *refCache) KindCount(k addr.Kind) int { return c.kindCnt[k] }

func (c *refCache) set(block uint64) []refLine {
	s := block % c.sets
	return c.lines[s*uint64(c.ways) : (s+1)*uint64(c.ways)]
}

// Lookup probes for a block, updating LRU on hit.
func (c *refCache) Lookup(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			c.stamp++
			set[i].lastUse = c.stamp
			return true
		}
	}
	return false
}

// Peek probes without updating LRU.
func (c *refCache) Peek(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

// MarkDirty sets the dirty bit of a resident block; reports residency.
func (c *refCache) MarkDirty(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// MarkUsed flags a resident counter block as having served an LLC data
// miss (Fig 11 accounting); reports residency.
func (c *refCache) MarkUsed(block uint64) bool {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].usedForLLCMiss = true
			return true
		}
	}
	return false
}

// Insert places a block, evicting if needed, and returns the victim (ok
// reports whether a valid block was displaced). Inserting a block that is
// already resident refreshes its LRU/dirty state instead.
func (c *refCache) Insert(block uint64, dirty bool, kind addr.Kind) (Victim, bool) {
	set := c.set(block)
	c.stamp++
	// Already resident?
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].lastUse = c.stamp
			set[i].dirty = set[i].dirty || dirty
			return Victim{}, false
		}
	}
	victimIdx := c.pickVictim(set, kind)
	if victimIdx < 0 {
		return Victim{}, false // counter insert dropped at cap
	}
	v := set[victimIdx]
	var out Victim
	evicted := false
	if v.valid {
		out = Victim{Block: v.tag, Dirty: v.dirty, Kind: v.kind, WasUsed: v.usedForLLCMiss}
		evicted = true
		c.kindCnt[v.kind]--
	}
	set[victimIdx] = refLine{tag: block, valid: true, dirty: dirty, kind: kind, lastUse: c.stamp}
	c.kindCnt[kind]++
	return out, evicted
}

// pickVictim chooses the way to replace: an invalid way first; otherwise,
// if inserting a counter at the counter cap, the LRU *counter* way in this
// set — or no way at all (-1, insert dropped) when the set has none;
// otherwise global LRU.
func (c *refCache) pickVictim(set []refLine, kind addr.Kind) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.ctrCapLines > 0 && kind == addr.KindCounter && c.kindCnt[addr.KindCounter] >= c.ctrCapLines {
		best := -1
		for i := range set {
			if set[i].kind == addr.KindCounter && (best < 0 || set[i].lastUse < set[best].lastUse) {
				best = i
			}
		}
		return best
	}
	best := 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[best].lastUse {
			best = i
		}
	}
	return best
}

// Invalidate removes a block; reports whether it was resident and returns
// its pre-invalidation state.
func (c *refCache) Invalidate(block uint64) (Victim, bool) {
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			v := Victim{Block: set[i].tag, Dirty: set[i].dirty, Kind: set[i].kind, WasUsed: set[i].usedForLLCMiss}
			c.kindCnt[set[i].kind]--
			set[i] = refLine{}
			return v, true
		}
	}
	return Victim{}, false
}

// Occupancy reports the number of valid lines.
func (c *refCache) Occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
