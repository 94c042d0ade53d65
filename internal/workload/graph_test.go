package workload

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// buildGraphReference is the original RMAT generator, one quadrant switch
// per level. buildGraph decides four levels per draw without branching and
// must reproduce it exactly: every graph, and so every golden, depends on
// this stream.
func buildGraphReference(vertices, avgDegree int, seed uint64) *graph {
	if vertices <= 0 || vertices&(vertices-1) != 0 {
		panic("workload: graph vertices must be a positive power of two")
	}
	r := newRNG(seed)
	levels := 0
	for 1<<levels < vertices {
		levels++
	}
	e := vertices * avgDegree
	srcs := make([]uint32, 0, e)
	dsts := make([]uint32, 0, e)
	// Quadrant thresholds on 16-bit slices of one rng draw (four levels
	// per draw) keep construction fast at default scale.
	const thA, thB, thC = 37355, 49807, 62259 // 0.57, +0.19, +0.19 of 65536
	for i := 0; i < e; i++ {
		var s, d uint32
		var bits uint64
		for l := 0; l < levels; l++ {
			if l%4 == 0 {
				bits = r.next()
			}
			p := uint32(bits & 0xffff)
			bits >>= 16
			switch {
			case p < thA: // quadrant a
			case p < thB: // b
				d |= 1 << uint(l)
			case p < thC: // c
				s |= 1 << uint(l)
			default: // d
				s |= 1 << uint(l)
				d |= 1 << uint(l)
			}
		}
		if s == d {
			d = uint32((int(d) + 1) % vertices)
		}
		srcs = append(srcs, s)
		dsts = append(dsts, d)
	}
	// Counting sort into CSR.
	g := &graph{v: vertices}
	g.rowPtr = make([]uint32, vertices+1)
	for _, s := range srcs {
		g.rowPtr[s+1]++
	}
	for i := 1; i <= vertices; i++ {
		g.rowPtr[i] += g.rowPtr[i-1]
	}
	g.adj = make([]uint32, e)
	cursor := make([]uint32, vertices)
	copy(cursor, g.rowPtr[:vertices])
	for i, s := range srcs {
		g.adj[cursor[s]] = dsts[i]
		cursor[s]++
	}
	g.layout()
	return g
}

// sameGraph reports how got differs from the reference graph, or "".
func sameGraph(got, want *graph) string {
	switch {
	case !slices.Equal(got.rowPtr, want.rowPtr):
		return "rowPtr differs"
	case !slices.Equal(got.adj, want.adj):
		return "adj differs"
	case got.footprint != want.footprint:
		return fmt.Sprintf("footprint %d, want %d", got.footprint, want.footprint)
	}
	return ""
}

// TestRMATMatchesReference pins the generator to the reference at level
// counts covering every residue mod 4 (the last draw of an edge carries one
// to four used levels) and at several seeds.
func TestRMATMatchesReference(t *testing.T) {
	for _, levels := range []int{1, 8, 9, 10, 11, 13, 17} {
		degree := 8
		if levels > 13 {
			degree = 2 // keeps the 2^17 case quick under -race
		}
		for _, seed := range []uint64{0, 1, 7, 0x9e3779b97f4a7c15} {
			v := 1 << levels
			if diff := sameGraph(buildGraph(v, degree, seed), buildGraphReference(v, degree, seed)); diff != "" {
				t.Errorf("2^%d vertices, degree %d, seed %#x: %s", levels, degree, seed, diff)
			}
		}
	}
}

// TestBuildGraphWorkerInvariance pins the graph to the serial reference at
// every worker count: more workers than edges, edge and vertex counts the
// worker count does not divide, 1 to 2^14 vertices, degrees 1 to 16, and
// seeds including 0 and ^0.
func TestBuildGraphWorkerInvariance(t *testing.T) {
	shapes := []struct{ levels, degree int }{
		{0, 1}, {0, 16}, {1, 1}, {1, 3}, {2, 5}, {5, 7}, {8, 16}, {11, 3}, {13, 1}, {14, 16},
	}
	for _, sh := range shapes {
		v := 1 << sh.levels
		for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, ^uint64(0)} {
			want := buildGraphReference(v, sh.degree, seed)
			for _, workers := range []int{1, 2, 3, 5, 8} {
				if diff := sameGraph(buildGraphWorkers(v, sh.degree, seed, workers), want); diff != "" {
					t.Errorf("2^%d vertices, degree %d, seed %#x, %d workers: %s", sh.levels, sh.degree, seed, workers, diff)
				}
			}
		}
	}
}

// FuzzRMATMatchesReference: for any seed, 1 to 2^14 vertices, degree 1 to
// 16 and 1 to 16 workers, the generator matches the reference.
func FuzzRMATMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(8), uint8(0))
	f.Add(uint64(0), uint8(0), uint8(1), uint8(7))
	f.Add(uint64(0xffffffffffffffff), uint8(14), uint8(16), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, logV, degree, workers uint8) {
		v, deg, w := 1<<(logV%15), int(degree%16)+1, int(workers%16)+1
		if diff := sameGraph(buildGraphWorkers(v, deg, seed, w), buildGraphReference(v, deg, seed)); diff != "" {
			t.Fatalf("%d vertices, degree %d, seed %#x, %d workers: %s", v, deg, seed, w, diff)
		}
	})
}

// uncachedSeed hands each run of TestGraphCacheConcurrent a graph key no
// earlier run in the process has cached (-count=N reruns it).
var uncachedSeed atomic.Uint64

// TestGraphCacheConcurrent builds BFS and DFS sets on one uncached graph
// key from several goroutines at once, as run.Execute's workers do, and
// pulls references through the lazily computed traversal orders. Every
// caller must get the one cached graph; -race checks the sharing.
func TestGraphCacheConcurrent(t *testing.T) {
	const workers = 8
	seed := 1<<40 + uncachedSeed.Add(1)
	sc := TestScale()
	graphs := make([]*graph, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		name := []string{"BFS", "DFS"}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			gens, err := NewSet(name, 2, seed, sc)
			if err != nil {
				t.Error(err)
				return
			}
			for _, gen := range gens {
				for i := 0; i < 1000; i++ {
					gen.Next()
				}
			}
			graphs[w] = gens[0].(*graphGen).g
		}()
	}
	close(start)
	wg.Wait()
	for w, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("worker %d got graph %p, worker 0 got %p: want one shared graph", w, g, graphs[0])
		}
	}
}

var graphSink *graph

// BenchmarkGraphBuild times one uncached RMAT build at graph-cold's size
// (2^18 vertices, average degree 8) on the workers buildGraph picks.
func BenchmarkGraphBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = buildGraph(1<<18, 8, 1)
	}
}

// BenchmarkGraphBuildSerial times the same build on one worker, so the
// single-thread cost stays on record whatever the host's CPU count.
func BenchmarkGraphBuildSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		graphSink = buildGraphWorkers(1<<18, 8, 1, 1)
	}
}

// ---- The whole-vertex kernels: the oracle for the chunked ones ----

// refKernel is a kernel as it was before kernels walked vertices in chunks
// of edgeChunk edges: one call emits every reference of the vertex at
// s.cursor, drawing from s.r in the same order.
type refKernel func(s *graphGen, out *[]Access)

var refKernels = map[string]refKernel{
	"pageRank":      refPageRank,
	"graphColoring": refLabelProp(1, 1.0),
	"connectedComp": refLabelProp(2, 0.5),
	"degreeCentr":   refDegree,
	"BFS":           refTraversal(func(g *graph) []uint32 { return g.orderBFS() }),
	"DFS":           refTraversal(func(g *graph) []uint32 { return g.orderDFS() }),
	"triangleCount": refTriangle,
	"shortestPath":  refSSSP,
}

func refPageRank(s *graphGen, out *[]Access) {
	g, v := s.g, s.cursor
	*out = append(*out,
		Access{Addr: g.addrRowPtr(v), NonMem: 2},
		Access{Addr: g.addrRowPtr(v + 1), NonMem: 1},
	)
	for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
		u := s.gatherTarget(g.adj[i])
		*out = append(*out,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrProp(0, u), NonMem: 14},
		)
	}
	*out = append(*out, Access{Addr: g.addrProp(1, v), Write: true, NonMem: 6})
}

func refLabelProp(prop int, pWrite float64) refKernel {
	return func(s *graphGen, out *[]Access) {
		g, v := s.g, s.cursor
		*out = append(*out, Access{Addr: g.addrRowPtr(v), NonMem: 2})
		for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
			u := s.gatherTarget(g.adj[i])
			*out = append(*out,
				Access{Addr: g.addrAdj(i), NonMem: 1},
				Access{Addr: g.addrProp(prop, u), NonMem: 14},
			)
		}
		if s.r.float() < pWrite {
			*out = append(*out, Access{Addr: g.addrProp(prop, v), Write: true, NonMem: 2})
		}
	}
}

func refDegree(s *graphGen, out *[]Access) {
	g, v := s.g, s.cursor
	*out = append(*out,
		Access{Addr: g.addrRowPtr(v), NonMem: 3},
		Access{Addr: g.addrRowPtr(v + 1), NonMem: 1},
		Access{Addr: g.addrProp(3, v), Write: true, NonMem: 2},
	)
}

func refTraversal(orderOf func(*graph) []uint32) refKernel {
	return func(s *graphGen, out *[]Access) {
		g := s.g
		order := orderOf(g)
		v := order[s.cursor%uint32(len(order))]
		*out = append(*out, Access{Addr: g.addrRowPtr(v), NonMem: 2})
		deg := g.degree(v)
		writeP := 0.0
		if deg > 0 {
			writeP = 1.0 / float64(deg) * 4
		}
		for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
			u := s.gatherTarget(g.adj[i])
			*out = append(*out,
				Access{Addr: g.addrAdj(i), NonMem: 1},
				Access{Addr: g.addrProp(2, u), NonMem: 12},
			)
			if s.r.float() < writeP {
				*out = append(*out, Access{Addr: g.addrProp(2, u), Write: true, NonMem: 1})
			}
		}
	}
}

func refTriangle(s *graphGen, out *[]Access) {
	g, v := s.g, s.cursor
	*out = append(*out, Access{Addr: g.addrRowPtr(v), NonMem: 2})
	limit := g.rowPtr[v] + uint32(min(g.degree(v), 8))
	for i := g.rowPtr[v]; i < limit; i++ {
		u := g.adj[i]
		*out = append(*out,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrRowPtr(u), NonMem: 1},
		)
		uLimit := g.rowPtr[u] + uint32(min(g.degree(u), 8))
		for j := g.rowPtr[u]; j < uLimit; j++ {
			*out = append(*out, Access{Addr: g.addrAdj(j), NonMem: 2})
		}
	}
}

func refSSSP(s *graphGen, out *[]Access) {
	g, v := s.g, s.cursor
	*out = append(*out,
		Access{Addr: g.addrRowPtr(v), NonMem: 2},
		Access{Addr: g.addrProp(0, v), NonMem: 1},
	)
	for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
		u := s.gatherTarget(g.adj[i])
		*out = append(*out,
			Access{Addr: g.addrAdj(i), NonMem: 1},
			Access{Addr: g.addrProp(0, u), NonMem: 12},
		)
		if s.r.float() < 0.2 {
			*out = append(*out, Access{Addr: g.addrProp(0, u), Write: true, NonMem: 1})
		}
	}
}

// refGen is the whole-vertex generator the chunked one must reproduce: it
// drives a generator's state (rng, locality ring, cursor) with the
// whole-vertex kernel, expanding one vertex into buf at a time.
type refGen struct {
	s    *graphGen
	kern refKernel
	buf  []Access
	pos  int
}

func newRefGen(s *graphGen) *refGen { return &refGen{s: s, kern: refKernels[s.name]} }

// expand appends the references of the next vertex visit to buf and
// returns the visited vertex's degree.
func (r *refGen) expand() int {
	v := r.s.cursor
	switch r.s.name {
	case "BFS":
		v = r.s.g.orderBFS()[v]
	case "DFS":
		v = r.s.g.orderDFS()[v]
	}
	r.kern(r.s, &r.buf)
	r.s.advance()
	return r.s.g.degree(v)
}

func (r *refGen) next() Access {
	for r.pos >= len(r.buf) {
		r.buf, r.pos = r.buf[:0], 0
		r.expand()
	}
	a := r.buf[r.pos]
	r.pos++
	return a
}

// graphNames lists the graph benchmarks in figure order.
func graphNames() []string {
	var names []string
	for _, n := range PrimaryNames() {
		if _, ok := graphKernels[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

// matchReference pulls len(want) references from gen and fails at the
// first that differs from want, or the first time gen's buffer outgrows
// chunkRefs or changes capacity.
func matchReference(t *testing.T, gen *graphGen, want []Access, what string) {
	t.Helper()
	for i, w := range want {
		if a := gen.Next(); a != w {
			t.Fatalf("%s: reference %d is %+v, the whole-vertex kernel's is %+v", what, i, a, w)
		}
		if len(gen.buf) > chunkRefs || cap(gen.buf) != chunkRefs {
			t.Fatalf("%s: after reference %d the buffer holds %d of capacity %d, want at most %d of %d",
				what, i, len(gen.buf), cap(gen.buf), chunkRefs, chunkRefs)
		}
	}
}

// TestGraphKernelsMatchReference: for every graph benchmark, at TestScale
// (seeds 1 to 3) and at the sweep's 2^17 vertices (seeds 1 and 2; each
// costs ~4 s under -race), at 1, 2 and 4 cores, each core's stream equals
// the whole-vertex kernel's over its first vertex (core 0's is the graph's
// hub), at least 8 visits and, if one comes within 512, a vertex whose
// degree is a multiple of edgeChunk: its last chunk is full, and the vertex
// must still end there. Every benchmark's walks must reach such a vertex.
func TestGraphKernelsMatchReference(t *testing.T) {
	const minVisits, maxVisits = 8, 512
	sweep := TestScale()
	sweep.GraphVertices = 1 << 17
	reached := map[string]bool{}
	for _, run := range []struct {
		sc    Scale
		seeds []uint64
	}{{TestScale(), []uint64{1, 2, 3}}, {sweep, []uint64{1, 2}}} {
		for _, name := range graphNames() {
			for _, cores := range []int{1, 2, 4} {
				for _, seed := range run.seeds {
					got, err := NewSet(name, cores, seed, run.sc)
					if err != nil {
						t.Fatal(err)
					}
					ref, _ := NewSet(name, cores, seed, run.sc)
					for c := range got {
						oracle := newRefGen(ref[c].(*graphGen))
						for visits, full := 0, false; visits < minVisits || !full && visits < maxVisits; visits++ {
							deg := oracle.expand()
							if deg > 0 && deg%edgeChunk == 0 {
								full, reached[name] = true, true
							}
						}
						what := fmt.Sprintf("%s, 2^%d vertices, %d cores, seed %d, core %d",
							name, bits.Len(uint(run.sc.GraphVertices))-1, cores, seed, c)
						matchReference(t, got[c].(*graphGen), oracle.buf, what)
					}
				}
			}
		}
	}
	for _, name := range graphNames() {
		if !reached[name] {
			t.Errorf("%s: no walk reached a vertex whose degree is a multiple of %d", name, edgeChunk)
		}
	}
}

// FuzzGraphStreamMatchesReference: for any graph benchmark, 1 to 4 cores
// and seed, each core's stream equals the whole-vertex kernel's over 1024
// references after skipping up to 65535 (a 4-core TestScale partition
// wraps after ~20 k).
func FuzzGraphStreamMatchesReference(f *testing.F) {
	names := graphNames()
	sc := TestScale()
	f.Fuzz(func(t *testing.T, bench, cores uint8, seed uint64, skip uint16) {
		name, n := names[int(bench)%len(names)], int(cores%4)+1
		// Uncached: the graph cache would keep every fuzzed seed's graph.
		g := buildGraph(sc.GraphVertices, sc.GraphAvgDegree, seed)
		for c := 0; c < n; c++ {
			gen := newGraphGen(name, graphKernels[name], g, c, n, seed+uint64(c))
			oracle := newRefGen(newGraphGen(name, nil, g, c, n, seed+uint64(c)))
			for i := 0; i < int(skip); i++ {
				oracle.next()
			}
			want := make([]Access, 1024)
			for i := range want {
				want[i] = oracle.next()
			}
			for i := 0; i < int(skip); i++ {
				gen.Next()
			}
			matchReference(t, gen, want, fmt.Sprintf("%s, %d cores, seed %#x, core %d, %d skipped", name, n, seed, c, skip))
		}
	})
}

// TestGraphGenNextAllocs: the core-0 pageRank generator of a 2^17-vertex
// graph starts at its hub, and pulling the hub's references and as many
// more allocates nothing and leaves the buffer at its built capacity.
func TestGraphGenNextAllocs(t *testing.T) {
	sc := TestScale()
	sc.GraphVertices = 1 << 17
	gens, err := NewSet("pageRank", 4, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	gen := gens[0].(*graphGen)
	hub := gen.g.degree(gen.cursor)
	if hub < 16*edgeChunk {
		t.Fatalf("core 0 starts at a vertex of %d edges, want a hub of at least %d", hub, 16*edgeChunk)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	capOK := true
	for i := 0; i < 2*(2*hub+3); i++ {
		gen.Next()
		capOK = capOK && cap(gen.buf) == chunkRefs
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("Next allocated %d times over the hub's references", n)
	}
	if !capOK {
		t.Errorf("buffer capacity left %d", chunkRefs)
	}
}

// bfsOrderReference is the queue-based BFS computeBFS replaced: a queue
// separate from the visit order.
func bfsOrderReference(g *graph) []uint32 {
	order := make([]uint32, 0, g.v)
	seen := make([]bool, g.v)
	queue := make([]uint32, 0, g.v)
	for root := 0; root < g.v; root++ {
		if seen[root] {
			continue
		}
		seen[root] = true
		queue = append(queue[:0], uint32(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for i := g.rowPtr[v]; i < g.rowPtr[v+1]; i++ {
				u := g.adj[i]
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// TestBFSOrderMatchesQueue pins computeBFS to the queue-based reference on
// graphs of 1 to 2^14 vertices, sparse ones with many restarts among them.
func TestBFSOrderMatchesQueue(t *testing.T) {
	for _, sh := range []struct{ levels, degree int }{{0, 1}, {1, 1}, {5, 1}, {8, 2}, {10, 8}, {12, 8}, {14, 4}} {
		for _, seed := range []uint64{0, 1, 7, ^uint64(0)} {
			g := buildGraph(1<<sh.levels, sh.degree, seed)
			if !slices.Equal(g.orderBFS(), bfsOrderReference(g)) {
				t.Errorf("2^%d vertices, degree %d, seed %#x: BFS order differs from the queue-based one", sh.levels, sh.degree, seed)
			}
		}
	}
}
