// Package config holds the simulated microarchitecture parameters. The
// defaults reproduce Table I of the paper; experiment presets perturb
// individual fields (AES latency, counter-cache size, channel count, …).
package config

import (
	"fmt"
	"strings"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/sim"
)

// CounterDesign selects the counter organisation used by the secure-memory
// engine.
type CounterDesign int

const (
	// CtrNone disables memory encryption/verification entirely (the
	// "non-secure" baseline of Fig 16).
	CtrNone CounterDesign = iota
	// CtrMono is the classic design: eight 56-bit counters per 64 B
	// counter block (one counter block covers 512 B of data).
	CtrMono
	// CtrSC64 is the split-counter design of Yan et al. [ISCA'06]: one
	// major counter plus 64 7-bit minor counters per block (covers 4 KB).
	CtrSC64
	// CtrMorphable is Morphable Counters [MICRO'18]: 128 minor counters
	// per block in a morphing format (covers 8 KB).
	CtrMorphable
	// CtrBipBip is BipBipCache [Hibler et al.]: a low-latency tweakable
	// block cipher in the cache controller. Data blocks are encrypted
	// directly under an address tweak — no counters, no counter cache,
	// no MC AES pool; decryption is a fixed BipBipLatency charged at L2
	// on fill, encryption is charged on writeback. Confidentiality-only.
	CtrBipBip
	// CtrInSRAM is Sealer/CryptoSRAM-style in-SRAM AES [Zhang et al.]:
	// data blocks are encrypted directly (no counters) by AES arrays
	// embedded in MC-side SRAM. Latency and bandwidth derive from the
	// SRAM geometry (InSRAMBanks) via InSRAMAESLatency, replacing the
	// fixed AESLatency unit. Confidentiality-only.
	CtrInSRAM
)

// String implements fmt.Stringer.
func (d CounterDesign) String() string {
	switch d {
	case CtrNone:
		return "non-secure"
	case CtrMono:
		return "mono"
	case CtrSC64:
		return "sc64"
	case CtrMorphable:
		return "morphable"
	case CtrBipBip:
		return "bipbip"
	case CtrInSRAM:
		return "insram"
	}
	return fmt.Sprintf("CounterDesign(%d)", int(d))
}

// HasCounters reports whether the design maintains per-block counter
// metadata (counter caches, integrity tree, overflow handling). The
// counter-free direct-cipher designs (CtrBipBip, CtrInSRAM) and the
// non-secure baseline do not.
func (d CounterDesign) HasCounters() bool {
	switch d {
	case CtrMono, CtrSC64, CtrMorphable:
		return true
	}
	return false
}

// Coverage reports how many 64 B data blocks one 64 B counter block covers.
func (d CounterDesign) Coverage() int {
	switch d {
	case CtrMono:
		return 8
	case CtrSC64:
		return 64
	case CtrMorphable:
		return 128
	}
	return 0
}

// Config is the full simulated-system configuration (Table I plus the
// EMCC-specific knobs of Sections IV and V).
type Config struct {
	// --- CPU (Table I) ---
	Cores        int     // simulated cores
	CoreClockGHz float64 // 3.2 GHz
	ROBEntries   int     // 192-entry ROB
	IssueWidth   int     // 4-wide OoO
	L1MSHRs      int     // outstanding misses per core

	// --- Cache hierarchy (Table I; latencies are additive) ---
	L1Bytes   int64
	L1Ways    int
	L1Latency sim.Time // 2 ns
	L2Bytes   int64
	L2Ways    int
	L2Latency sim.Time // 4 ns
	L3Bytes   int64    // total across slices
	L3Ways    int
	// L3TagLatency and L3DataLatency are the slice SRAM components: a
	// miss pays only the tag lookup, a hit pays tag + data (the 'L'
	// effect of Fig 13). Table I's additive 17 ns L3 latency emerges as
	// mean NoC round trip (~13 ns) + tag + data.
	L3TagLatency  sim.Time
	L3DataLatency sim.Time

	// --- NoC (Sec. III-A geometry; calibrated to Fig 3) ---
	MeshCols      int      // 6
	MeshRows      int      // 5
	NoCHopLatency sim.Time // per-hop link+router latency
	NoCBaseOneWay sim.Time // injection/ejection fixed cost per traversal

	// --- Secure memory engine ---
	Counter         CounterDesign
	CtrCacheBytes   int64    // MC's private counter/metadata cache (128 KB)
	CtrCacheWays    int      // 32-way
	CtrCacheLatency sim.Time // 3 ns
	AESLatency      sim.Time // 14 ns (AES-128)
	// AESPeakOpsPerSec is the total AES bandwidth provisioned for the
	// whole processor (Sec. V arithmetic: 2.6e9 ops/s at DDR4-3200).
	AESPeakOpsPerSec float64
	// CountersInLLC lets LLC act as a second-level counter cache
	// (prior-work baseline). EMCC implies CountersInLLC.
	CountersInLLC bool
	// BipBipLatency is the fixed tweakable-cipher latency charged per
	// block in the cache controller under CtrBipBip (the cipher is
	// engineered for single-digit-ns decryption; 3 ns default).
	BipBipLatency sim.Time
	// InSRAMBanks is the number of SRAM arrays provisioned with in-situ
	// AES logic under CtrInSRAM. Latency and aggregate bandwidth derive
	// from it via InSRAMAESLatency / InSRAMAESOpsPerSec.
	InSRAMBanks int

	// --- EMCC (the contribution; Sec. IV) ---
	EMCC bool
	// EMCCL2CounterBytes caps how much of L2 counters may occupy (32 KB
	// in the paper, "to ensure the benefit does not come from caching
	// more counters").
	EMCCL2CounterBytes int64
	// EMCCAESFraction is the fraction of total AES bandwidth moved from
	// MC to the L2s (0.5 in the paper; swept in Fig 19).
	EMCCAESFraction float64
	// EMCCLookupDelay is 'J' in Fig 10: the delay of the serial counter
	// lookup in L2 during spare cycles after a data miss.
	EMCCLookupDelay sim.Time
	// EMCCDynamicOff enables the Sec. IV-F intensity monitor: L2s turn
	// EMCC off (offloading all cryptography to the MC) while the
	// application is not memory-intensive.
	EMCCDynamicOff bool
	// EMCCDisableAESGate removes the wait-one-LLC-hit gate before
	// starting AES at L2 (ablation: LLC hits then waste AES bandwidth).
	EMCCDisableAESGate bool
	// EMCCDisableOffload removes the adaptive offload decision
	// (ablation: L2 AES queues grow unboundedly under miss bursts).
	EMCCDisableOffload bool
	// XPT enables LLC-miss prediction (Intel XPT-style) in the timing
	// simulator: L2 misses are forwarded to the MC in parallel with the
	// LLC lookup. The paper's primary timelines (Figs 5, 8, 10, 13) route
	// requests through the LLC serially, and Fig 14's XPT timeline is
	// analytic (internal/figures), so no figure turns it on; it is off by
	// default, and `emccsim -xpt` and tests enable it.
	XPT bool

	// --- Prefetch (Table I: constant-stride, L1 degree 1, L2 degree 2) ---
	// PrefetchL2Degree > 0 enables the L2 stream prefetcher in the timing
	// simulator. Off by default: the synthetic workloads' spatial-
	// locality parameters are calibrated against the paper's measured
	// hit rates with prefetching already reflected; enabling it on top is
	// available as an ablation (cmd/figures -fig ablation).
	PrefetchL2Degree int
	PrefetchTable    int

	// --- DRAM (Table I) ---
	Channels        int
	Ranks           int
	BanksPerRank    int
	TCL, TRCD, TRP  sim.Time // 13.75 ns each
	TRFC            sim.Time // 350 ns
	TREFI           sim.Time // refresh interval
	BurstLatency    sim.Time // 64 B transfer at 3.2 GT/s x 8 B
	RowTimeout      sim.Time // 500 ns open-page timeout policy
	ReadQueueCap    int      // 256 entries
	WriteQueueCap   int      // 256 entries
	WriteDrainHigh  float64  // start draining writes above this fill
	WriteDrainLow   float64  // stop draining below this fill
	FRFCFSCap       int      // max consecutive row hits before oldest-first
	RowBytes        int64    // DRAM row (page) size per bank
	OverflowMaxLive int      // <=2 outstanding split-counter overflows
	OverflowSlots   int      // <=8 read/write-queue slots for overflow work
}

// Default returns the Table I configuration with Morphable Counters and
// counters cached in LLC (the paper's primary baseline). Enable EMCC on top
// with cfg.EMCC = true.
func Default() Config {
	return Config{
		Cores:        4,
		CoreClockGHz: 3.2,
		ROBEntries:   192,
		IssueWidth:   4,
		L1MSHRs:      6,

		L1Bytes:       64 << 10,
		L1Ways:        8,
		L1Latency:     sim.NS(2),
		L2Bytes:       1 << 20,
		L2Ways:        8,
		L2Latency:     sim.NS(4),
		L3Bytes:       8 << 20,
		L3Ways:        16,
		L3TagLatency:  sim.NS(2),
		L3DataLatency: sim.NS(2),

		MeshCols:      6,
		MeshRows:      5,
		NoCHopLatency: sim.NS(1.0),
		NoCBaseOneWay: sim.NS(3.0),

		Counter:          CtrMorphable,
		CtrCacheBytes:    128 << 10,
		CtrCacheWays:     32,
		CtrCacheLatency:  sim.NS(3),
		AESLatency:       sim.NS(14),
		AESPeakOpsPerSec: 2.6e9,
		CountersInLLC:    true,
		BipBipLatency:    sim.NS(3),
		InSRAMBanks:      64,

		EMCC:               false,
		EMCCL2CounterBytes: 32 << 10,
		EMCCAESFraction:    0.5,
		EMCCLookupDelay:    sim.NS(1),
		XPT:                false,

		PrefetchL2Degree: 0,
		PrefetchTable:    64,

		Channels:        1,
		Ranks:           8,
		BanksPerRank:    16,
		TCL:             sim.NS(13.75),
		TRCD:            sim.NS(13.75),
		TRP:             sim.NS(13.75),
		TRFC:            sim.NS(350),
		TREFI:           sim.NS(7800),
		BurstLatency:    sim.NS(2.5),
		RowTimeout:      sim.NS(500),
		ReadQueueCap:    256,
		WriteQueueCap:   256,
		WriteDrainHigh:  0.7,
		WriteDrainLow:   0.3,
		FRFCFSCap:       16,
		RowBytes:        8 << 10,
		OverflowMaxLive: 2,
		OverflowSlots:   8,
	}
}

// Validate reports a descriptive error for inconsistent configurations.
func (c *Config) Validate() error {
	if err := c.validateCacheGeometry(); err != nil {
		return err
	}
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores must be positive, got %d", c.Cores)
	case c.Channels <= 0 || c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("config: Channels must be a positive power of two, got %d", c.Channels)
	case c.EMCC && !c.CountersInLLC:
		return fmt.Errorf("config: EMCC requires CountersInLLC")
	case c.EMCC && !c.Counter.HasCounters():
		return fmt.Errorf("config: EMCC requires a counter-backed design, got %s", c.Counter)
	case !c.Counter.HasCounters() && c.CountersInLLC:
		return fmt.Errorf("config: CountersInLLC set but %s has no counters to cache", c.Counter)
	case c.Counter == CtrBipBip && c.BipBipLatency < 0:
		return fmt.Errorf("config: BipBipLatency must be non-negative, got %v", c.BipBipLatency)
	case c.Counter == CtrInSRAM && c.InSRAMBanks <= 0:
		return fmt.Errorf("config: CtrInSRAM needs InSRAMBanks > 0, got %d", c.InSRAMBanks)
	case c.EMCCAESFraction < 0 || c.EMCCAESFraction > 1:
		return fmt.Errorf("config: EMCCAESFraction must be in [0,1], got %g", c.EMCCAESFraction)
	case c.MeshCols < 2 || c.MeshRows < 2:
		return fmt.Errorf("config: mesh must be at least 2x2, got %dx%d", c.MeshCols, c.MeshRows)
	}
	return nil
}

// validateCacheGeometry rejects a cache the simulator could not build:
// every cache is a whole number of sets of 64 B blocks, so its size must be
// a positive multiple of 64 B times its ways (the LLC's size is the total
// the slices split), and a set holds at most cache.MaxWays ways.
func (c *Config) validateCacheGeometry() error {
	for _, g := range []struct {
		bytes, ways string
		size        int64
		n           int
	}{
		{"L1Bytes", "L1Ways", c.L1Bytes, c.L1Ways},
		{"L2Bytes", "L2Ways", c.L2Bytes, c.L2Ways},
		{"L3Bytes", "L3Ways", c.L3Bytes, c.L3Ways},
		{"CtrCacheBytes", "CtrCacheWays", c.CtrCacheBytes, c.CtrCacheWays},
	} {
		if g.n <= 0 || g.n > cache.MaxWays {
			return fmt.Errorf("config: %s must be in [1, %d], got %d", g.ways, cache.MaxWays, g.n)
		}
		if set := addr.BlockBytes * int64(g.n); g.size <= 0 || g.size%set != 0 {
			return fmt.Errorf("config: %s must be a positive multiple of %d B (64 B blocks x %s %d), got %d",
				g.bytes, set, g.ways, g.n, g.size)
		}
	}
	return nil
}

// In-SRAM AES geometry (CtrInSRAM). One AES array handles a 16 B lane per
// pass; a pass is the full 10-round AES-128 schedule at insramRoundNS per
// round. A 64 B block therefore splits into addr.BlockBytes/16 lanes that
// InSRAMBanks arrays process in ceil(lanes/banks) waves — latency falls
// with bank count until one wave covers the whole block, and aggregate
// bandwidth grows linearly with the provisioned arrays.
const (
	insramRounds  = 10
	insramRoundNS = 2
)

// InSRAMAESLatency derives the per-block cipher latency from the SRAM
// geometry. It replaces the fixed AESLatency unit under CtrInSRAM.
func InSRAMAESLatency(c *Config) sim.Time {
	const lanes = addr.BlockBytes / 16
	waves := (lanes + c.InSRAMBanks - 1) / c.InSRAMBanks
	return sim.Time(waves) * insramRounds * insramRoundNS * sim.Nanosecond
}

// InSRAMAESOpsPerSec is the aggregate 16 B-lane throughput of the
// provisioned arrays: each bank completes one lane per full AES pass.
func InSRAMAESOpsPerSec(c *Config) float64 {
	passSeconds := float64(insramRounds*insramRoundNS) * 1e-9
	return float64(c.InSRAMBanks) / passSeconds
}

// CoreCycle reports one core clock period.
func (c *Config) CoreCycle() sim.Time {
	return sim.Time(float64(sim.Nanosecond)/c.CoreClockGHz + 0.5)
}

// SystemName labels the configuration the way Fig 16's legend does.
func (c *Config) SystemName() string {
	if c.Counter == CtrNone {
		return "non-secure"
	}
	name := c.Counter.String()
	if c.EMCC {
		name = "emcc+" + name
	}
	return name
}

// ApplySystem configures the secure-memory design from its figure-legend
// name: the -system flag vocabulary of cmd/emccsim, and the one system
// table internal/figures and internal/check build their configurations
// from. The "+nollc" suffix disables caching counters in LLC (the Fig 2
// "W/o" configuration).
func ApplySystem(cfg *Config, name string) error {
	base := strings.TrimSuffix(name, "+nollc")
	switch base {
	case "non-secure", "nonsecure", "none":
		cfg.Counter = CtrNone
		cfg.CountersInLLC = false
		cfg.EMCC = false
	case "mono":
		cfg.Counter = CtrMono
	case "sc64":
		cfg.Counter = CtrSC64
	case "morphable":
		cfg.Counter = CtrMorphable
	case "emcc":
		cfg.Counter = CtrMorphable
		cfg.EMCC = true
	case "bipbip":
		cfg.Counter = CtrBipBip
		cfg.CountersInLLC = false
		cfg.EMCC = false
	case "insram":
		cfg.Counter = CtrInSRAM
		cfg.CountersInLLC = false
		cfg.EMCC = false
	default:
		return fmt.Errorf("unknown system %q", name)
	}
	if strings.HasSuffix(name, "+nollc") {
		cfg.CountersInLLC = false
		if cfg.EMCC {
			return fmt.Errorf("emcc requires counters in LLC")
		}
	}
	return nil
}
