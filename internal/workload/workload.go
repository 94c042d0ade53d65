// Package workload synthesises the memory reference streams of the paper's
// benchmarks. The real studies run graphBIG (on an LDBC Facebook-like
// graph), SPEC CPU 2017 and PARSEC 3.0 binaries; none are available here,
// so each benchmark is replaced by a generator reproducing the property
// that matters to the evaluation — its memory access *pattern*: footprint,
// irregularity, reuse, read/write mix and memory intensity (see DESIGN.md,
// substitutions table).
//
// Streams are deterministic functions of (benchmark, core, seed, Scale);
// identical configurations replay identical traces.
package workload

import (
	"fmt"
	"math"
	"strings"
)

// Access is one memory reference preceded by NonMem non-memory
// instructions (the core model retires those at issue width). The two
// flags sit last so the struct packs into 24 bytes.
type Access struct {
	Addr   uint64
	NonMem int
	Write  bool
	// Dep marks a dependent access (pointer chase): the core may not
	// issue it until its previous memory access completed. This is what
	// makes canneal/mcf/omnetpp latency-sensitive rather than merely
	// bandwidth-hungry.
	Dep bool
}

// Generator produces an unbounded, deterministic access stream. Sims pull
// as many references as their run length requires.
type Generator interface {
	// Name is the benchmark label used in figures.
	Name() string
	// Next returns the next access.
	Next() Access
	// Footprint reports the simulated data bytes this stream touches.
	Footprint() int64
}

// Scale sizes the synthetic workloads. The paper's runs use hundreds of GB
// footprints and billions of instructions; these defaults keep single-run
// times laptop-scale while preserving the footprint-vs-cache-size regimes
// (footprints far exceed the 8 MB LLC; counter working sets around or above
// the 128 KB counter cache and competitive with LLC space).
type Scale struct {
	// GraphVertices and GraphAvgDegree shape the RMAT graph substrate.
	GraphVertices  int
	GraphAvgDegree int
	// IrregularBytes sizes canneal/omnetpp/mcf-style footprints per core.
	IrregularBytes int64
	// RegularBytes sizes the streaming/regular (Fig 24) footprints.
	RegularBytes int64
}

// DefaultScale is used by the figure harness.
func DefaultScale() Scale {
	return Scale{
		GraphVertices:  1 << 22,
		GraphAvgDegree: 8,
		IrregularBytes: 256 << 20,
		RegularBytes:   24 << 20,
	}
}

// TestScale is a miniature scale for unit tests.
func TestScale() Scale {
	return Scale{
		GraphVertices:  1 << 12,
		GraphAvgDegree: 8,
		IrregularBytes: 4 << 20,
		RegularBytes:   1 << 20,
	}
}

// Primary benchmarks: the 11 large/irregular workloads of Figs 2-23
// (graphBIG kernels plus canneal, omnetpp, mcf).
var primaryNames = []string{
	"pageRank", "graphColoring", "connectedComp", "degreeCentr",
	"DFS", "BFS", "triangleCount", "shortestPath",
	"canneal", "omnetpp", "mcf",
}

// Regular benchmarks: the SPEC/PARSEC set of Fig 24.
var regularNames = []string{
	"blackscholes", "bodytrack", "ferret", "freqmine", "streamcluster",
	"x264", "facesim", "fluidanimate", "bwaves_s", "exchange2_s",
	"perlbench_s", "cactuBSSN_s", "deepsjeng_s", "leela_s", "x264_s",
}

// PrimaryNames lists the 11 large/irregular benchmarks in figure order.
func PrimaryNames() []string { return append([]string(nil), primaryNames...) }

// RegularNames lists the Fig 24 SPEC/PARSEC benchmarks in figure order.
func RegularNames() []string { return append([]string(nil), regularNames...) }

// AllNames lists every benchmark, primary set first.
func AllNames() []string { return append(PrimaryNames(), RegularNames()...) }

// IsPrimary reports whether name belongs to the 11-benchmark set.
func IsPrimary(name string) bool {
	for _, n := range primaryNames {
		if n == name {
			return true
		}
	}
	return false
}

// NewSet builds one generator per core for the named benchmark. Graph
// kernels share one graph (multithreaded, as the paper runs graphBIG) with
// each core traversing its own vertex partition; all other benchmarks are
// multiprogrammed — per-core instances at disjoint address offsets
// (Sec. V: "four instances of the same benchmark").
//
// A "+"-separated mix ("mcf+canneal") is the co-run frontend: core c runs
// part c mod len(parts), each instance at a stacked offset so co-runners
// never share data and interfere only through the shared LLC slices and
// DRAM. Mixes are scalar-only — a graph kernel's footprint is one shared
// graph, which has no per-core region to stack.
func NewSet(name string, cores int, seed uint64, sc Scale) ([]Generator, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("workload: cores must be positive, got %d", cores)
	}
	if parts := strings.Split(name, "+"); len(parts) > 1 {
		gens := make([]Generator, cores)
		var offset uint64
		for c := 0; c < cores; c++ {
			part := parts[c%len(parts)]
			region, err := mixRegion(part, sc)
			if err != nil {
				return nil, err
			}
			g, err := newScalarGen(part, offset, seed+uint64(c)*0x79b9, sc)
			if err != nil {
				return nil, err
			}
			gens[c] = g
			offset += uint64(region)
		}
		return gens, nil
	}
	gens := make([]Generator, cores)
	if kern, ok := graphKernels[name]; ok {
		if err := checkGraphDegree(sc); err != nil {
			return nil, err
		}
		g := cachedGraph(sc.GraphVertices, sc.GraphAvgDegree, seed)
		for c := 0; c < cores; c++ {
			gens[c] = newGraphGen(name, kern, g, c, cores, seed+uint64(c)*0x9e37)
		}
		return gens, nil
	}
	for c := 0; c < cores; c++ {
		offset := uint64(c) * uint64(perCoreRegion(name, sc))
		g, err := newScalarGen(name, offset, seed+uint64(c)*0x79b9, sc)
		if err != nil {
			return nil, err
		}
		gens[c] = g
	}
	return gens, nil
}

// mixRegion reports one co-run instance's address region, rejecting the
// benchmarks a mix cannot stack.
func mixRegion(part string, sc Scale) (int64, error) {
	if _, ok := graphKernels[part]; ok {
		return 0, fmt.Errorf("workload: graph kernel %q cannot join a co-run mix (its footprint is one shared graph, not a per-core region)", part)
	}
	region := perCoreRegion(part, sc)
	if region == 0 {
		return 0, fmt.Errorf("workload: unknown benchmark %q", part)
	}
	return region, nil
}

// TotalFootprint reports the combined footprint of a generator set.
func TotalFootprint(gens []Generator) int64 {
	if len(gens) == 0 {
		return 0
	}
	// Graph kernels share their footprint; scalar benchmarks stack.
	if _, shared := graphKernels[gens[0].Name()]; shared {
		return gens[0].Footprint()
	}
	var total int64
	for _, g := range gens {
		total += g.Footprint()
	}
	return total
}

// SpaceBytes reports how much simulated physical data space a benchmark
// needs for `cores` instances: the upper bound of every address any
// generator can emit, 64 B-block aligned.
func SpaceBytes(name string, cores int, sc Scale) (int64, error) {
	if parts := strings.Split(name, "+"); len(parts) > 1 {
		var total int64
		for c := 0; c < cores; c++ {
			region, err := mixRegion(parts[c%len(parts)], sc)
			if err != nil {
				return 0, err
			}
			total += region
		}
		return total, nil
	}
	if _, ok := graphKernels[name]; ok {
		if err := checkGraphDegree(sc); err != nil {
			return 0, err
		}
		// Mirror graph.layout() analytically: row pointers, adjacency,
		// four property arrays of propStride-byte records, each 64 B
		// aligned.
		align := func(x int64) int64 { return (x + 63) &^ 63 }
		v := int64(sc.GraphVertices)
		e := v * int64(sc.GraphAvgDegree)
		return align(4*(v+1)) + align(4*e) + 4*align(propStride*v), nil
	}
	region := perCoreRegion(name, sc)
	if region == 0 {
		return 0, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return int64(cores) * region, nil
}

// checkGraphDegree rejects an average degree the graph cannot be built
// with: below 1 there are no edges for the kernels to walk (a negative
// degree cannot even be allocated), and more than 2^32-1 edges overflow
// the graph's uint32 row pointers and adjacency indices.
func checkGraphDegree(sc Scale) error {
	if sc.GraphAvgDegree < 1 {
		return fmt.Errorf("workload: Scale.GraphAvgDegree must be at least 1, got %d", sc.GraphAvgDegree)
	}
	if v := int64(sc.GraphVertices); v > 0 && int64(sc.GraphAvgDegree) > math.MaxUint32/v {
		return fmt.Errorf("workload: Scale.GraphAvgDegree %d over %d vertices is more than the graph's 2^32-1 edges", sc.GraphAvgDegree, v)
	}
	return nil
}

// rng is a splitmix64 PRNG: tiny, fast and stable across Go versions so
// traces never drift between releases.
type rng struct{ state uint64 }

// splitmixGamma is splitmix64's state increment per draw.
const splitmixGamma = 0x9e3779b97f4a7c15

func newRNG(seed uint64) *rng { return &rng{state: seed ^ splitmixGamma} }

func (r *rng) next() uint64 {
	r.state += splitmixGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances the stream past n draws at once: each draw adds
// splitmixGamma to the state.
func (r *rng) skip(n uint64) { r.state += n * splitmixGamma }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
