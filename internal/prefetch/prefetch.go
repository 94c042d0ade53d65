// Package prefetch implements the constant-stride prefetcher of Table I
// ("Degree of constant stride prefetcher — L1: 1, L2: 2"). Without program
// counters (the workloads are address traces), the detector is
// region-based: a table tracks the last block and stride observed within
// each aligned region, and issues `degree` prefetch candidates once the
// same stride repeats (two-delta confirmation), the standard stream-table
// design.
package prefetch

// entry is one region's detector state.
type entry struct {
	region    uint64
	lastBlock uint64
	stride    int64
	confirmed bool
	valid     bool
	lastUse   uint64
}

// Prefetcher is a direct-mapped stream table. Not safe for concurrent use.
type Prefetcher struct {
	entries []entry
	degree  int
	// regionShift aligns detector regions (default 4 KB = 64 blocks).
	regionShift uint
	stamp       uint64
	out         []uint64 // reused result buffer

	// Issued counts prefetch candidates emitted (stats).
	Issued int64
}

// New builds a prefetcher with `tableSize` region entries issuing `degree`
// blocks ahead on a confirmed stride.
func New(tableSize, degree int) *Prefetcher {
	if tableSize <= 0 || degree <= 0 {
		panic("prefetch: table size and degree must be positive")
	}
	return &Prefetcher{
		entries:     make([]entry, tableSize),
		degree:      degree,
		regionShift: 6, // 64 blocks = 4 KB regions
	}
}

// Observe feeds one demand-accessed block index and returns the blocks to
// prefetch (nil when no stride is confirmed). The returned slice is only
// valid until the next call.
func (p *Prefetcher) Observe(block uint64) []uint64 {
	region := block >> p.regionShift
	idx := int(region % uint64(len(p.entries)))
	e := &p.entries[idx]
	p.stamp++
	e.lastUse = p.stamp

	if !e.valid || e.region != region {
		*e = entry{region: region, lastBlock: block, valid: true, lastUse: p.stamp}
		return nil
	}
	stride := int64(block) - int64(e.lastBlock)
	if stride == 0 {
		return nil
	}
	if stride == e.stride {
		e.confirmed = true
	} else {
		e.stride = stride
		e.confirmed = false
	}
	e.lastBlock = block
	if !e.confirmed {
		return nil
	}
	p.out = p.out[:0]
	next := int64(block)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next < 0 {
			break
		}
		p.out = append(p.out, uint64(next))
	}
	p.Issued += int64(len(p.out))
	return p.out
}
