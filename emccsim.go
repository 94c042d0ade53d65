// Package emccsim reproduces "Eager Memory Cryptography in Caches" (Wang,
// Kotra, Jian — MICRO 2022): a secure-memory architecture study in which
// counter-mode decryption and verification move from the memory controller
// into the L2 caches.
//
// The package is a facade over the internal simulators:
//
//   - NewSecureMemory: the functional secure-memory model — real AES-128
//     counter-mode encryption, Carter-Wegman MACs and an integrity tree
//     over a simulated DRAM image. Tampering and replay are detected.
//   - NewFunctional: the Pintool-style counting simulator (cache hit/miss
//     and traffic statistics; Figs 2, 6, 7, 11, 12, 23, 24).
//   - NewTiming: the gem5-style timing simulator (4 OoO cores, mesh NoC,
//     DDR4, AES pools; Figs 15-22).
//   - NewFigures: the harness that regenerates every table and figure.
//
// Quickstart:
//
//	cfg := emccsim.DefaultConfig()
//	cfg.EMCC = true
//	s, err := emccsim.NewTiming(&cfg, emccsim.TimingOptions{
//		Benchmark: "canneal", Refs: 500_000, Warmup: 2_000_000,
//	})
//	if err != nil { ... }
//	res := s.Run()
//	fmt.Println(res.IPC, res.L2MissLatencyNS)
package emccsim

import (
	"repro/internal/config"
	"repro/internal/figures"
	"repro/internal/fsim"
	"repro/internal/secmem"
	"repro/internal/tsim"
	"repro/internal/workload"
)

// Config is the simulated-system configuration (Table I of the paper plus
// the EMCC-specific knobs).
type Config = config.Config

// CounterDesign selects the counter organisation.
type CounterDesign = config.CounterDesign

// Counter organisations.
const (
	// CtrNone disables memory encryption/verification (non-secure).
	CtrNone = config.CtrNone
	// CtrMono uses eight 56-bit counters per counter block.
	CtrMono = config.CtrMono
	// CtrSC64 uses SC-64 split counters (64 x 7-bit minors).
	CtrSC64 = config.CtrSC64
	// CtrMorphable uses Morphable Counters (128 minors, morphing format).
	CtrMorphable = config.CtrMorphable
)

// DefaultConfig returns the paper's Table I configuration with Morphable
// Counters cached in LLC (the primary baseline). Set cfg.EMCC = true to
// apply the paper's contribution on top.
func DefaultConfig() Config { return config.Default() }

// FunctionalSim is the Pintool-style counting simulator.
type FunctionalSim = fsim.Sim

// FunctionalOptions selects workload and run length for a functional run.
type FunctionalOptions = fsim.Options

// NewFunctional builds a functional (counting) simulation.
func NewFunctional(cfg *Config, opt FunctionalOptions) (*FunctionalSim, error) {
	return fsim.New(cfg, opt)
}

// TimingSim is the gem5-style timing simulator.
type TimingSim = tsim.Sim

// TimingOptions selects workload and run length for a timing run.
type TimingOptions = tsim.Options

// TimingResult summarises a timing run.
type TimingResult = tsim.Result

// NewTiming builds a timing simulation.
func NewTiming(cfg *Config, opt TimingOptions) (*TimingSim, error) {
	return tsim.New(cfg, opt)
}

// SecureMemory is the functional secure-memory model (encrypt/verify a
// simulated DRAM image; detects tampering and replay).
type SecureMemory = secmem.Memory

// ErrTampered is returned by SecureMemory reads that fail verification.
var ErrTampered = secmem.ErrTampered

// NewSecureMemory builds a functional secure memory over dataBytes of
// protected space with the given counter design and 16-byte master key; a
// key of any other length is an error.
func NewSecureMemory(dataBytes int64, design CounterDesign, key []byte) (*SecureMemory, error) {
	return secmem.New(dataBytes, design, key)
}

// Figures is the experiment harness regenerating the paper's tables and
// figures.
type Figures = figures.Harness

// FigureTable is one regenerated figure/table.
type FigureTable = figures.Table

// NewFigures builds a figure harness; quick shrinks run lengths.
func NewFigures(quick bool) *Figures { return figures.NewHarness(quick) }

// FigureIDs lists every reproducible figure identifier in paper order.
func FigureIDs() []string { return figures.IDs() }

// Benchmarks lists every synthetic benchmark (the 11 large/irregular
// workloads of Figs 2-23 first, then the Fig 24 SPEC/PARSEC set).
func Benchmarks() []string { return workload.AllNames() }

// PrimaryBenchmarks lists the 11 large/irregular workloads.
func PrimaryBenchmarks() []string { return workload.PrimaryNames() }

// WorkloadScale sizes the synthetic workloads.
type WorkloadScale = workload.Scale

// DefaultScale is the figure-harness workload scale.
func DefaultScale() WorkloadScale { return workload.DefaultScale() }

// TestScale is a miniature scale for tests and examples.
func TestScale() WorkloadScale { return workload.TestScale() }
