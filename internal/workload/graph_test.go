package workload

import (
	"fmt"
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
