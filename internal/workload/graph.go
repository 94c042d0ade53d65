package workload

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// The graph substrate: an RMAT power-law graph in CSR form, with a
// simulated memory layout (row-pointer array, adjacency array, and four
// property arrays of propStride-byte vertex records) that the kernels below
// walk the way graphBIG's kernels walk theirs — sequential row pointers,
// bursty adjacency scans, and irregular property-array accesses keyed by
// neighbor IDs, which is exactly the pattern that defeats counter caches
// (Sec. III).

type graph struct {
	v      int
	rowPtr []uint32
	adj    []uint32

	// Simulated memory layout (byte offsets from the graph's base).
	rowPtrBase uint64
	adjBase    uint64
	propBase   [4]uint64
	footprint  int64

	// Traversal orders, each computed once on first use; graphs are shared
	// by concurrent runs (see graphCache).
	bfsOnce, dfsOnce   sync.Once
	bfsOrder, dfsOrder []uint32
}

// propStride is the simulated per-vertex property record size in bytes.
// 256 B models the fat vertex records of graph frameworks and sizes the
// gather footprint (and therefore the counter working set) realistically —
// simulated addresses cost no host memory.
const propStride = 256

// graphCache shares built graphs (and their traversal orders) across
// simulator instances; RMAT construction at default scale is expensive.
// run.Execute's workers call NewSet concurrently, so each key is built once
// under its entry's lock: the first caller builds it on up to GOMAXPROCS
// goroutines while concurrent callers for that key wait, and every caller
// gets the same *graph. Built graphs are read-only apart from their
// once-computed traversal orders.
var graphCache = struct {
	mu      sync.Mutex
	entries map[[3]uint64]*graphEntry
}{entries: map[[3]uint64]*graphEntry{}}

// graphEntry holds one cached graph. Its lock is held only while the graph
// is built, so a build that panics on the calling goroutine leaves g nil
// and the next caller retries.
type graphEntry struct {
	mu sync.Mutex
	g  *graph
}

func cachedGraph(vertices, avgDegree int, seed uint64) *graph {
	key := [3]uint64{uint64(vertices), uint64(avgDegree), seed}
	graphCache.mu.Lock()
	e := graphCache.entries[key]
	if e == nil {
		e = &graphEntry{}
		graphCache.entries[key] = e
	}
	graphCache.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.g == nil {
		e.g = buildGraph(vertices, avgDegree, seed)
	}
	return e.g
}

// RMAT quadrant thresholds on a 16-bit slice of an rng draw (a=0.57,
// b=0.19, c=0.19, d=0.05 of 65536, the Graph500 parameters). A level whose
// slice p falls in quadrant a (p < rmatA), b (< rmatB), c (< rmatC) or d
// sets neither, the destination, the source or both vertex-ID bits.
const rmatA, rmatB, rmatC = 37355, 49807, 62259

// rmatLanes has bit 0 of each 32-bit lane of a word set; rmatFlag has bit
// 16 of each lane set.
const (
	rmatLanes = 1<<32 | 1
	rmatFlag  = rmatLanes << 16
)

// Adding 1<<16-th to a 32-bit lane holding a 16-bit p sets the lane's bit
// 16 exactly when p >= th, and cannot carry into the next lane.
const (
	rmatGeA = (1<<16 - rmatA) * rmatLanes
	rmatGeB = (1<<16 - rmatB) * rmatLanes
	rmatGeC = (1<<16 - rmatC) * rmatLanes
)

// rmatLevels decides the four RMAT levels one 64-bit draw carries, 16 bits
// each from the low end, with no branch on the draw: bit k of src (dst) is
// level k's source (destination) bit. The source bit is p >= rmatB; the
// destination bit is set in quadrants b and d, where an odd number of the
// three thresholds lie at or below p.
func rmatLevels(bits uint64) (src, dst uint32) {
	even := bits & (0xffff * rmatLanes)      // levels 0 and 2
	odd := bits >> 16 & (0xffff * rmatLanes) // levels 1 and 3
	// Level k's flag lands at bit 16+k (k < 2) or 46+k (k >= 2); the
	// shifts fold them to bit k and the conversions drop the rest.
	s := (even+rmatGeB)&rmatFlag | (odd+rmatGeB)&rmatFlag<<1
	d := s ^ ((even+rmatGeA)^(even+rmatGeC))&rmatFlag ^ ((odd+rmatGeA)^(odd+rmatGeC))&rmatFlag<<1
	return uint32(s>>16 | s>>46), uint32(d>>16 | d>>46)
}

// rmatEdge draws one edge's source and destination IDs over 2^levels
// vertices, four levels per draw; the unused levels of the last draw are
// discarded.
func rmatEdge(r *rng, levels int) (src, dst uint32) {
	for l := 0; l < levels; l += 4 {
		s, d := rmatLevels(r.next())
		// l < 32 always; the mask lets the compiler drop its
		// oversized-shift handling.
		src |= s << (l & 31)
		dst |= d << (l & 31)
	}
	mask := uint32(1)<<levels - 1
	return src & mask, dst & mask
}

// buildGraph generates a deterministic RMAT graph (a=0.57 b=0.19 c=0.19,
// the Graph500 parameters) with vertices*avgDegree directed edges, on up to
// GOMAXPROCS goroutines.
func buildGraph(vertices, avgDegree int, seed uint64) *graph {
	workers := max(1, min(runtime.GOMAXPROCS(0), vertices*avgDegree/minEdgesPerWorker))
	return buildGraphWorkers(vertices, avgDegree, seed, workers)
}

// minEdgesPerWorker is the fewest edges worth a goroutine of their own:
// smaller graphs, TestScale's 32 k edges among them, build on the calling
// goroutine.
const minEdgesPerWorker = 1 << 16

// maxPlaceWorkers caps the placement pass, each of whose workers reads the
// whole source list. Builds have been timed on at most 2 CPUs; the value 8
// is not measured.
const maxPlaceWorkers = 8

// buildGraphWorkers is buildGraph on the given number of workers. The graph
// is the same at every worker count:
//
//   - Edges are generated by edge range. Edge i takes draws i*d to i*d+d-1
//     of the seed's stream, d = ceil(levels/4), so each worker jumps its rng
//     to its first edge and writes its edges in place.
//   - The counting sort into CSR counts serially and places by source
//     range. Each range holds an even share of the edges, read off the row
//     pointers. Each worker walks every edge in index order and places only
//     those whose source it owns, so every adjacency list keeps the serial
//     order.
func buildGraphWorkers(vertices, avgDegree int, seed uint64, workers int) *graph {
	if vertices <= 0 || vertices&(vertices-1) != 0 {
		panic("workload: graph vertices must be a positive power of two")
	}
	levels := bits.Len(uint(vertices - 1))
	draws := uint64(levels+3) / 4
	e := vertices * avgDegree
	srcs := make([]uint32, e)
	dsts := make([]uint32, e)
	parallel(workers, func(w int) {
		lo, hi := e*w/workers, e*(w+1)/workers
		r := newRNG(seed)
		r.skip(uint64(lo) * draws)
		for i := lo; i < hi; i++ {
			s, d := rmatEdge(r, levels)
			if s == d {
				d = uint32((int(d) + 1) % vertices)
			}
			srcs[i], dsts[i] = s, d
		}
	})

	// rowPtr[s+2] first counts source s's edges. After the prefix sum
	// rowPtr[s+1] is s's first adjacency slot, and placing s's edges
	// advances it to s's end, which is where s+1 starts.
	rowPtr := make([]uint32, vertices+2)
	for _, s := range srcs {
		rowPtr[s+2]++
	}
	for i := 2; i < len(rowPtr); i++ {
		rowPtr[i] += rowPtr[i-1]
	}
	// Worker w owns sources bounds[w] to bounds[w+1]-1: from the first
	// source whose edges start at or after w/n of them.
	n := min(workers, maxPlaceWorkers)
	bounds := make([]uint32, n+1)
	bounds[n] = uint32(vertices)
	for w := 1; w < n; w++ {
		bounds[w] = uint32(sort.Search(vertices, func(s int) bool { return int(rowPtr[s+1]) >= e*w/n }))
	}
	adj := make([]uint32, e)
	parallel(n, func(w int) { placeEdges(adj, rowPtr, srcs, dsts, bounds[w], bounds[w+1]) })
	g := &graph{v: vertices, rowPtr: rowPtr[:vertices+1], adj: adj}
	g.layout()
	return g
}

// parallel runs fn(0) to fn(n-1), fn(0) on the calling goroutine and the
// rest on goroutines of their own, and returns when all have.
func parallel(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// placeEdges writes, in edge order, the destination of each edge whose
// source s lies in [lo, hi) to adj[rowPtr[s+1]] and advances rowPtr[s+1].
func placeEdges(adj, rowPtr, srcs, dsts []uint32, lo, hi uint32) {
	var own [ownBlock]uint32
	for base := 0; base < len(srcs); base += ownBlock {
		for _, i := range own[:ownEdges(&own, srcs, base, lo, hi)] {
			s := srcs[i]
			adj[rowPtr[s+1]] = dsts[i]
			rowPtr[s+1]++
		}
	}
}

// ownBlock is how many edges ownEdges filters at a time.
const ownBlock = 512

// ownEdges writes to own, in order, the indices of the edges among
// srcs[base:base+ownBlock] whose source lies in [lo, hi), and returns how
// many there are. A worker owns only some of a block's sources, so the
// filter counts without branching.
func ownEdges(own *[ownBlock]uint32, srcs []uint32, base int, lo, hi uint32) int {
	n := 0
	for i, s := range srcs[base:min(base+ownBlock, len(srcs))] {
		// n <= i < ownBlock: the mask only spares a bounds check.
		own[n&(ownBlock-1)] = uint32(base + i)
		if s-lo < hi-lo {
			n++
		}
	}
	return n
}

// layout assigns byte offsets to each array region, 64 B aligned.
func (g *graph) layout() {
	align := func(x uint64) uint64 { return (x + 63) &^ 63 }
	cur := uint64(0)
	g.rowPtrBase = cur
	cur = align(cur + uint64(4*(g.v+1)))
	g.adjBase = cur
	cur = align(cur + uint64(4*len(g.adj)))
	for i := range g.propBase {
		g.propBase[i] = cur
		cur = align(cur + uint64(propStride*g.v))
	}
	g.footprint = int64(cur)
}

func (g *graph) degree(v uint32) int { return int(g.rowPtr[v+1] - g.rowPtr[v]) }

// addrRowPtr, addrAdj and addrProp translate structure indices to byte
// addresses in the simulated layout.
func (g *graph) addrRowPtr(v uint32) uint64 { return g.rowPtrBase + 4*uint64(v) }
func (g *graph) addrAdj(i uint32) uint64    { return g.adjBase + 4*uint64(i) }
func (g *graph) addrProp(k int, v uint32) uint64 {
	return g.propBase[k] + propStride*uint64(v)
}

// orderBFS returns the BFS visit order with restarts, computing it on the
// first call.
func (g *graph) orderBFS() []uint32 {
	g.bfsOnce.Do(g.computeBFS)
	return g.bfsOrder
}

// computeBFS visits vertices in the order it discovers them, so order is
// its own queue: order[head:] holds the discovered vertices not yet
// scanned.
func (g *graph) computeBFS() {
	order := make([]uint32, 0, g.v)
	seen := make([]bool, g.v)
	head := 0
	for root := 0; root < g.v; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		order = append(order, uint32(root))
		for ; head < len(order); head++ {
			v := order[head]
			for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
				u := g.adj[i]
				if !seen[u] {
					seen[u] = true
					order = append(order, u)
				}
			}
		}
	}
	g.bfsOrder = order
}

// orderDFS returns the DFS visit order with restarts, computing it on the
// first call.
func (g *graph) orderDFS() []uint32 {
	g.dfsOnce.Do(g.computeDFS)
	return g.dfsOrder
}

func (g *graph) computeDFS() {
	order := make([]uint32, 0, g.v)
	seen := make([]bool, g.v)
	stack := make([]uint32, 0, 1024)
	for root := 0; root < g.v; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack[:0], uint32(root))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
				u := g.adj[i]
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	g.dfsOrder = order
}

// edgeChunk is the most edges of one vertex a kernel call walks. A hub's
// adjacency (79.6 k edges at DefaultScale) streams out over many calls, so
// a generator's buffer is bounded by chunkRefs, not by the largest degree.
const edgeChunk = 64

// chunkRefs bounds the references of one kernel call: at most three per
// edge (adjacency read, gather, write), a prologue of at most two and an
// epilogue of one. triangleCount's 8×8-edge cap emits at most 81.
const chunkRefs = 3*edgeChunk + 3

// kernelFunc emits the accesses of one call into s.buf: up to edgeChunk
// edges of the current vertex (see graphGen.edges), with the vertex's
// prologue on its first call and its epilogue on its last. It reports
// whether the vertex is finished.
type kernelFunc func(s *graphGen) (done bool)

// graphKernels maps benchmark names to kernel behaviours.
var graphKernels = map[string]kernelFunc{
	"pageRank":      kernPageRank,
	"graphColoring": kernLabelProp(1, 1.0), // color prop, always writes
	"connectedComp": kernLabelProp(2, 0.5), // label prop, writes when changed
	"degreeCentr":   kernDegree,
	"BFS":           kernTraversal(func(g *graph) []uint32 { return g.orderBFS() }),
	"DFS":           kernTraversal(func(g *graph) []uint32 { return g.orderDFS() }),
	"triangleCount": kernTriangle,
	"shortestPath":  kernSSSP,
}

// graphGen walks one vertex partition of the shared graph with a kernel.
type graphGen struct {
	name   string
	kern   kernelFunc
	g      *graph
	r      *rng
	lo, hi uint32 // partition [lo, hi)
	cursor uint32
	// edge is the adjacency slot the current vertex's walk resumes at;
	// mid reports that the vertex has had its first call.
	edge uint32
	mid  bool
	buf  []Access // capacity chunkRefs, allocated once
	pos  int

	// recent is a ring of recently gathered vertices. Real graph kernels
	// re-touch hot vertices far more often than a uniform pass suggests
	// (frontier overlap, hub neighborhoods, convergence checks); gathers
	// re-target a recent vertex with probability pLocal, which is what
	// gives counter accesses the temporal locality the paper's Fig 6
	// hit rates imply.
	recent    [64]uint32
	recentLen int
	recentPos int
}

// pTemporal is the probability a gather re-touches a recently gathered
// vertex exactly (hits in the data caches; models frontier overlap and hot
// hubs). pSpatial is the probability it lands elsewhere in a recent
// vertex's counter-block neighborhood (usually a data-cache miss that hits
// in the counter caches). The remainder are raw far gathers.
const (
	pTemporal = 0.40
	pSpatial  = 0.38
)

// ctrNeighborhood is the vertex span a gather's spatial locality reaches:
// 64 vertices of propStride-byte records span 16 KB, two Morphable counter
// blocks of 8 KB each. Community-ordered real graphs put most of a vertex's
// neighbors within such spans.
const ctrNeighborhood = 64

// gatherTarget applies spatio-temporal locality to a gather of vertex u:
// with probability pTemporal+pSpatial the gather lands on or near a recently
// touched vertex — in the pSpatial case usually a *different* vertex (and so
// a different data block that can miss in every cache) but inside the same
// ctrNeighborhood span of counter blocks. That is the kind of locality that
// produces counter-cache hits at the MC without being filtered out by the
// data caches (Fig 6).
func (s *graphGen) gatherTarget(u uint32) uint32 {
	if s.recentLen > 0 {
		p := s.r.float()
		switch {
		case p < pTemporal:
			u = s.recent[s.r.intn(s.recentLen)]
		case p < pTemporal+pSpatial:
			base := s.recent[s.r.intn(s.recentLen)]
			delta := uint32(s.r.intn(ctrNeighborhood))
			u = (base &^ (ctrNeighborhood - 1)) + delta
			if int(u) >= s.g.v {
				u = base
			}
		}
	}
	s.recent[s.recentPos] = u
	s.recentPos = (s.recentPos + 1) % len(s.recent)
	if s.recentLen < len(s.recent) {
		s.recentLen++
	}
	return u
}

func newGraphGen(name string, kern kernelFunc, g *graph, core, cores int, seed uint64) *graphGen {
	per := g.v / cores
	lo := uint32(core * per)
	hi := uint32((core + 1) * per)
	if core == cores-1 {
		hi = uint32(g.v)
	}
	return &graphGen{name: name, kern: kern, g: g, r: newRNG(seed), lo: lo, hi: hi, cursor: lo,
		buf: make([]Access, 0, chunkRefs)}
}

func (s *graphGen) Name() string     { return s.name }
func (s *graphGen) Footprint() int64 { return s.g.footprint }

func (s *graphGen) Next() Access {
	for s.pos >= len(s.buf) {
		s.buf = s.buf[:0]
		s.pos = 0
		if s.kern(s) {
			s.advance()
		}
	}
	a := s.buf[s.pos]
	s.pos++
	return a
}

// advance moves to the next vertex in the partition, wrapping (a new
// "iteration" of the kernel) indefinitely.
func (s *graphGen) advance() {
	s.cursor++
	if s.cursor >= s.hi {
		s.cursor = s.lo
	}
}

// edges returns the adjacency slots [from, to) a kernel call walks for
// vertex v, the next edgeChunk or fewer of its edges, and whether the call
// is v's first (it emits the prologue) and its last (the epilogue).
func (s *graphGen) edges(v uint32) (from, to uint32, first, last bool) {
	first = !s.mid
	if first {
		s.edge = s.g.rowPtr[v]
	}
	end := s.g.rowPtr[v+1]
	from = s.edge
	to = from + min(end-from, edgeChunk)
	last = to == end
	s.edge, s.mid = to, !last
	return from, to, first, last
}

// ---- Kernels ----
//
// Each kernel draws from s.r in the order a whole-vertex walk would (per
// edge: the gather, then any write draw; then the epilogue's draw), so how
// a vertex splits into calls never changes the stream.

// kernPageRank: sequential row pointers, irregular neighbor-rank gathers,
// one write per vertex. The classic counter-cache killer.
func kernPageRank(s *graphGen) bool {
	g, v := s.g, s.cursor
	from, to, first, last := s.edges(v)
	if first {
		s.buf = append(s.buf,
			Access{Addr: g.addrRowPtr(v), NonMem: 2},
			Access{Addr: g.addrRowPtr(v + 1), NonMem: 1},
		)
	}
	for i := from; i < to; i++ {
		u := s.gatherTarget(g.adj[i])
		s.buf = append(s.buf,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrProp(0, u), NonMem: 14},
		)
	}
	if last {
		s.buf = append(s.buf, Access{Addr: g.addrProp(1, v), Write: true, NonMem: 6})
	}
	return last
}

// kernLabelProp builds graphColoring / connectedComp: gather neighbor
// labels from property array k, write own with probability pWrite.
func kernLabelProp(prop int, pWrite float64) kernelFunc {
	return func(s *graphGen) bool {
		g, v := s.g, s.cursor
		from, to, first, last := s.edges(v)
		if first {
			s.buf = append(s.buf, Access{Addr: g.addrRowPtr(v), NonMem: 2})
		}
		for i := from; i < to; i++ {
			u := s.gatherTarget(g.adj[i])
			s.buf = append(s.buf,
				Access{Addr: g.addrAdj(i), NonMem: 1},
				Access{Addr: g.addrProp(prop, u), NonMem: 14},
			)
		}
		if last && s.r.float() < pWrite {
			s.buf = append(s.buf, Access{Addr: g.addrProp(prop, v), Write: true, NonMem: 2})
		}
		return last
	}
}

// kernDegree: degree centrality — row-pointer streaming plus a property
// write; regular compared to the gather kernels.
func kernDegree(s *graphGen) bool {
	g, v := s.g, s.cursor
	s.buf = append(s.buf,
		Access{Addr: g.addrRowPtr(v), NonMem: 3},
		Access{Addr: g.addrRowPtr(v + 1), NonMem: 1},
		Access{Addr: g.addrProp(3, v), Write: true, NonMem: 2},
	)
	return true
}

// kernTraversal builds BFS/DFS: vertices visited in traversal order, each
// visit scanning its adjacency burst and probing the visited flags of its
// neighbors (irregular), marking newly discovered ones (writes).
func kernTraversal(orderOf func(*graph) []uint32) kernelFunc {
	return func(s *graphGen) bool {
		g := s.g
		order := orderOf(g)
		// The cursor indexes the traversal order, partitioned like
		// vertices are.
		v := order[s.cursor%uint32(len(order))]
		from, to, first, last := s.edges(v)
		if first {
			s.buf = append(s.buf, Access{Addr: g.addrRowPtr(v), NonMem: 2})
		}
		deg := g.degree(v)
		writeP := 0.0
		if deg > 0 {
			writeP = 1.0 / float64(deg) * 4 // a few discoveries per visit
		}
		for i := from; i < to; i++ {
			u := s.gatherTarget(g.adj[i])
			s.buf = append(s.buf,
				Access{Addr: g.addrAdj(i), NonMem: 1},
				Access{Addr: g.addrProp(2, u), NonMem: 12},
			)
			if s.r.float() < writeP {
				s.buf = append(s.buf, Access{Addr: g.addrProp(2, u), Write: true, NonMem: 1})
			}
		}
		return last
	}
}

// kernTriangle: triangle counting — for each vertex, intersect its
// adjacency list with each neighbor's (two concurrent sequential scans at
// unrelated offsets). Read-dominated, heavy adjacency traffic. The work per
// vertex is capped, so one call finishes it.
func kernTriangle(s *graphGen) bool {
	g, v := s.g, s.cursor
	s.buf = append(s.buf, Access{Addr: g.addrRowPtr(v), NonMem: 2})
	// Cap per-vertex work so hub vertices do not monopolise the stream.
	limit := g.rowPtr[v] + uint32(min(g.degree(v), 8))
	for i := g.rowPtr[v]; i < limit; i++ {
		u := g.adj[i]
		s.buf = append(s.buf,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrRowPtr(u), NonMem: 1},
		)
		uLimit := g.rowPtr[u] + uint32(min(g.degree(u), 8))
		for j := g.rowPtr[u]; j < uLimit; j++ {
			s.buf = append(s.buf, Access{Addr: g.addrAdj(j), NonMem: 2})
		}
	}
	return true
}

// kernSSSP: Bellman-Ford-style relaxation — read own distance, gather
// neighbor distances, relax (write) a fraction of them.
func kernSSSP(s *graphGen) bool {
	g, v := s.g, s.cursor
	from, to, first, last := s.edges(v)
	if first {
		s.buf = append(s.buf,
			Access{Addr: g.addrRowPtr(v), NonMem: 2},
			Access{Addr: g.addrProp(0, v), NonMem: 1},
		)
	}
	for i := from; i < to; i++ {
		u := s.gatherTarget(g.adj[i])
		s.buf = append(s.buf,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrProp(0, u), NonMem: 12},
		)
		if s.r.float() < 0.2 {
			s.buf = append(s.buf, Access{Addr: g.addrProp(0, u), Write: true, NonMem: 1})
		}
	}
	return last
}
