package workload

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNamesComplete(t *testing.T) {
	if got := len(PrimaryNames()); got != 11 {
		t.Fatalf("primary benchmarks = %d, want 11", got)
	}
	if got := len(RegularNames()); got != 15 {
		t.Fatalf("regular benchmarks = %d, want 15", got)
	}
	if got := len(AllNames()); got != 26 {
		t.Fatalf("all benchmarks = %d, want 26", got)
	}
	if !IsPrimary("canneal") || IsPrimary("blackscholes") {
		t.Fatal("IsPrimary misclassifies")
	}
}

// TestAccessPacked pins Access at 24 bytes: a replayed trace holds every
// reference as one, so the two flags must stay after the two words.
func TestAccessPacked(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 24 {
		t.Fatalf("Access is %d bytes, want 24", n)
	}
}

func TestEveryBenchmarkGenerates(t *testing.T) {
	sc := TestScale()
	for _, name := range AllNames() {
		gens, err := NewSet(name, 4, 1, sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(gens) != 4 {
			t.Fatalf("%s: %d generators", name, len(gens))
		}
		space, err := SpaceBytes(name, 4, sc)
		if err != nil {
			t.Fatalf("%s: SpaceBytes: %v", name, err)
		}
		for c, g := range gens {
			if g.Name() != name {
				t.Fatalf("%s: generator named %q", name, g.Name())
			}
			for i := 0; i < 2000; i++ {
				a := g.Next()
				if a.Addr >= uint64(space) {
					t.Fatalf("%s core %d: address %#x beyond space %#x", name, c, a.Addr, space)
				}
				if a.NonMem < 0 {
					t.Fatalf("%s: negative NonMem", name)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	for _, name := range []string{"canneal", "pageRank", "mcf", "blackscholes"} {
		g1, err := NewSet(name, 2, 7, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewSet(name, 2, 7, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			a, b := g1[0].Next(), g2[0].Next()
			if a != b {
				t.Fatalf("%s: streams diverged at %d: %+v vs %+v", name, i, a, b)
			}
		}
	}
}

func TestSeedsChangeStreams(t *testing.T) {
	a, _ := NewSet("canneal", 1, 1, TestScale())
	b, _ := NewSet("canneal", 1, 2, TestScale())
	same := 0
	for i := 0; i < 1000; i++ {
		if a[0].Next().Addr == b[0].Next().Addr {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("different seeds produced %d/1000 identical addresses", same)
	}
}

func TestMultiprogrammedInstancesDisjoint(t *testing.T) {
	sc := TestScale()
	gens, _ := NewSet("canneal", 4, 1, sc)
	region := perCoreRegion("canneal", sc)
	for c, g := range gens {
		lo := uint64(c) * uint64(region)
		hi := lo + uint64(region)
		for i := 0; i < 2000; i++ {
			a := g.Next().Addr
			if a < lo || a >= hi {
				t.Fatalf("core %d address %#x outside [%#x,%#x)", c, a, lo, hi)
			}
		}
	}
}

func TestGraphKernelsShareFootprint(t *testing.T) {
	gens, _ := NewSet("BFS", 4, 1, TestScale())
	if TotalFootprint(gens) != gens[0].Footprint() {
		t.Fatal("graph kernels should share one footprint")
	}
	sgens, _ := NewSet("mcf", 4, 1, TestScale())
	if TotalFootprint(sgens) <= sgens[0].Footprint() {
		t.Fatal("multiprogrammed footprints should stack")
	}
}

func TestChaseAccessesAreDependent(t *testing.T) {
	gens, _ := NewSet("canneal", 1, 1, TestScale())
	deps := 0
	for i := 0; i < 20000; i++ {
		if gens[0].Next().Dep {
			deps++
		}
	}
	if deps == 0 {
		t.Fatal("canneal produced no dependent (pointer-chase) accesses")
	}
}

func TestWritesPresent(t *testing.T) {
	for _, name := range []string{"canneal", "pageRank", "bwaves_s"} {
		gens, _ := NewSet(name, 1, 1, TestScale())
		writes := 0
		for i := 0; i < 20000; i++ {
			if gens[0].Next().Write {
				writes++
			}
		}
		if writes == 0 {
			t.Fatalf("%s produced no writes", name)
		}
	}
}

func TestUnknownBenchmarkErrors(t *testing.T) {
	if _, err := NewSet("nosuch", 4, 1, TestScale()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := SpaceBytes("nosuch", 4, TestScale()); err == nil {
		t.Fatal("unknown benchmark accepted by SpaceBytes")
	}
	if _, err := NewSet("canneal", 0, 1, TestScale()); err == nil {
		t.Fatal("zero cores accepted")
	}
}

// TestBadGraphDegreeErrors checks that a graph kernel's NewSet and
// SpaceBytes reject an average degree the graph cannot be built with, by
// an error naming the field: a negative degree (which panicked in the
// build), a zero one (which built an edgeless graph whose kernels still
// emitted references), and one whose edge count overflows the uint32 row
// pointers (rejected before anything is allocated).
func TestBadGraphDegreeErrors(t *testing.T) {
	for _, c := range []struct {
		vertices, degree int
	}{{1 << 12, -1}, {1 << 12, 0}, {1 << 22, 1024}, {1 << 31, 2}} {
		sc := TestScale()
		sc.GraphVertices, sc.GraphAvgDegree = c.vertices, c.degree
		if _, err := NewSet("pageRank", 4, 1, sc); err == nil || !strings.Contains(err.Error(), "GraphAvgDegree") {
			t.Errorf("NewSet with %d vertices of degree %d: error %v, want one naming GraphAvgDegree", c.vertices, c.degree, err)
		}
		if _, err := SpaceBytes("pageRank", 4, sc); err == nil || !strings.Contains(err.Error(), "GraphAvgDegree") {
			t.Errorf("SpaceBytes with %d vertices of degree %d: error %v, want one naming GraphAvgDegree", c.vertices, c.degree, err)
		}
	}
	// The largest edge count the row pointers hold is accepted.
	sc := TestScale()
	sc.GraphVertices, sc.GraphAvgDegree = 1<<22, 1023
	if _, err := SpaceBytes("pageRank", 4, sc); err != nil {
		t.Errorf("SpaceBytes with 2^22 vertices of degree 1023: %v", err)
	}
}

func TestSpaceBytesCoversGraphLayout(t *testing.T) {
	sc := TestScale()
	g := buildGraph(sc.GraphVertices, sc.GraphAvgDegree, 123)
	want, err := SpaceBytes("pageRank", 4, sc)
	if err != nil {
		t.Fatal(err)
	}
	if g.footprint != want {
		t.Fatalf("analytic space %d != layout footprint %d", want, g.footprint)
	}
}

func TestRMATDeterministicAndSkewed(t *testing.T) {
	g1 := buildGraph(1<<10, 8, 5)
	g2 := buildGraph(1<<10, 8, 5)
	for i := range g1.rowPtr {
		if g1.rowPtr[i] != g2.rowPtr[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
	// Power-law-ish: the max degree should far exceed the average.
	maxDeg := 0
	for v := uint32(0); v < uint32(g1.v); v++ {
		if d := g1.degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8*4 {
		t.Fatalf("max degree %d too uniform for RMAT", maxDeg)
	}
}

func TestTraversalOrdersCoverAllVertices(t *testing.T) {
	g := buildGraph(1<<10, 8, 5)
	for _, order := range [][]uint32{g.orderBFS(), g.orderDFS()} {
		if len(order) != g.v {
			t.Fatalf("order covers %d of %d vertices", len(order), g.v)
		}
		seen := make([]bool, g.v)
		for _, v := range order {
			if seen[v] {
				t.Fatal("vertex visited twice")
			}
			seen[v] = true
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := newRNG(42)
	f := func(n uint16) bool {
		m := int(n%100) + 1
		v := r.intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// float stays in [0,1).
	for i := 0; i < 10000; i++ {
		if v := r.float(); v < 0 || v >= 1 {
			t.Fatalf("float out of range: %v", v)
		}
	}
}

// composition summarises a generated stream: the properties
// TestComposeSummaries checks without replaying it through a simulator.
type composition struct {
	WriteFrac float64
	DepFrac   float64
	UniqueBlk int64
}

// compose samples n references from a fresh instance of the benchmark and
// summarises them.
func compose(name string, seed uint64, n int64, sc Scale) (composition, error) {
	gens, err := NewSet(name, 1, seed, sc)
	if err != nil {
		return composition{}, err
	}
	var writes, deps int64
	blocks := make(map[uint64]struct{})
	for i := int64(0); i < n; i++ {
		a := gens[0].Next()
		if a.Write {
			writes++
		}
		if a.Dep {
			deps++
		}
		blocks[a.Addr>>6] = struct{}{}
	}
	return composition{
		WriteFrac: float64(writes) / float64(n),
		DepFrac:   float64(deps) / float64(n),
		UniqueBlk: int64(len(blocks)),
	}, nil
}

func TestComposeSummaries(t *testing.T) {
	sc := TestScale()
	// Irregular benchmarks touch far more unique blocks than regular
	// ones at equal reference counts.
	can, err := compose("canneal", 1, 50_000, sc)
	if err != nil {
		t.Fatal(err)
	}
	exch, err := compose("exchange2_s", 1, 50_000, sc)
	if err != nil {
		t.Fatal(err)
	}
	if can.UniqueBlk <= exch.UniqueBlk {
		t.Fatalf("canneal unique blocks (%d) not above exchange2_s (%d)", can.UniqueBlk, exch.UniqueBlk)
	}
	if can.WriteFrac <= 0 || can.WriteFrac >= 1 {
		t.Fatalf("canneal write fraction %v out of range", can.WriteFrac)
	}
	if can.DepFrac == 0 {
		t.Fatal("canneal has no dependent accesses")
	}
	if exch.DepFrac != 0 {
		t.Fatal("exchange2_s should not chase pointers")
	}
}

// TestCoRunMix pins the "+"-separated co-run frontend: round-robin part
// assignment, stacked disjoint regions, SpaceBytes agreement, and the
// graph-kernel/unknown-part rejections.
func TestCoRunMix(t *testing.T) {
	sc := TestScale()
	gens, err := NewSet("mcf+canneal", 4, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantName := []string{"mcf", "canneal", "mcf", "canneal"}
	var lo uint64
	for c, g := range gens {
		if g.Name() != wantName[c] {
			t.Fatalf("core %d runs %q, want %q", c, g.Name(), wantName[c])
		}
		hi := lo + uint64(perCoreRegion(g.Name(), sc))
		for i := 0; i < 2000; i++ {
			a := g.Next().Addr
			if a < lo || a >= hi {
				t.Fatalf("core %d address %#x outside its region [%#x,%#x)", c, a, lo, hi)
			}
		}
		lo = hi
	}
	space, err := SpaceBytes("mcf+canneal", 4, sc)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*perCoreRegion("mcf", sc) + 2*perCoreRegion("canneal", sc); space != want {
		t.Fatalf("SpaceBytes = %d, want %d", space, want)
	}

	if _, err := NewSet("mcf+BFS", 2, 1, sc); err == nil {
		t.Error("NewSet accepted a graph kernel in a co-run mix")
	}
	if _, err := NewSet("mcf+nosuch", 2, 1, sc); err == nil {
		t.Error("NewSet accepted an unknown mix part")
	}
	if _, err := SpaceBytes("mcf+nosuch", 2, sc); err == nil {
		t.Error("SpaceBytes accepted an unknown mix part")
	}
}
