// Central registry of every stats key the simulators and the evaluation
// harness share. A key is a lowercase, '/'-separated path whose first
// segment names the subsystem that owns it ("fsim", "tsim", "dram", ...).
//
// Contract (enforced by cmd/lint's statskey pass and by keys_test.go):
//
//   - Every name passed to Set.Add/Inc/Observe/Counter/Accum/Hist/HistRef
//     and to Snapshot.Counter/AccumMean/Hist must resolve, at compile time, to one of
//     the constants below. A key that is assembled at runtime (per-segment
//     or per-name families like "obs/seg/<segment>-ns") must carry a
//     `//lint:dynamic-key` annotation at the call site.
//   - Every constant declared in this file must be referenced somewhere
//     outside this package — an orphaned key means a producer or consumer
//     was deleted and the other side now silently reads zeros.
//
// The differential harness (internal/check) compares fsim and tsim runs
// through these names; a typo'd key would make both sides report zero and
// the comparison pass vacuously. Keeping every literal here is what turns
// that failure mode into a compile-time/lint-time error.
package stats

// Functional-simulator (fsim) keys.
const (
	FsimDataRead      = "fsim/data-read"       // program loads
	FsimDataWrite     = "fsim/data-write"      // program stores
	FsimL2DataMiss    = "fsim/l2-data-miss"    // read+write misses at L2
	FsimLLCDataMiss   = "fsim/llc-data-miss"   // data misses at LLC
	FsimLLCDataAccess = "fsim/llc-data-access" // data lookups at LLC
	FsimDRAMDataRead  = "fsim/dram-data-read"
	FsimDRAMDataWrite = "fsim/dram-data-write"
	FsimDRAMCtrRead   = "fsim/dram-counter-read"
	FsimDRAMCtrWrite  = "fsim/dram-counter-write"
	FsimDRAMOvfL0     = "fsim/dram-overflow-l0"
	FsimDRAMOvfHi     = "fsim/dram-overflow-hi"
	FsimCtrMCHit      = "fsim/counter-mc-hit"   // per DRAM data read
	FsimCtrLLCHit     = "fsim/counter-llc-hit"  // per DRAM data read
	FsimCtrLLCMiss    = "fsim/counter-llc-miss" // per DRAM data read
	FsimCtrLLCLookup  = "fsim/counter-llc-lookup"
)

// EMCC policy keys, recorded by both simulators (the differential harness
// compares them by the same name on each side).
const (
	// EmccSpecFetch counts L2 counter misses that triggered the
	// speculative fetch-to-LLC.
	EmccSpecFetch = "emcc/l2-counter-fetch-to-llc"
	// EmccCtrInserted counts counter lines installed in L2.
	EmccCtrInserted = "emcc/counter-inserted-l2"
	// EmccUseless counts counter lines evicted or invalidated unused.
	EmccUseless = "emcc/useless-counter-access"
	// EmccInvalidations counts write-driven counter invalidations in L2.
	EmccInvalidations = "emcc/counter-invalidations-l2"
	// EmccDecryptAtL2/MC classify where a DRAM fill was decrypted.
	EmccDecryptAtL2 = "emcc/decrypt-at-l2"
	EmccDecryptAtMC = "emcc/decrypt-at-mc"
	// EmccOffloadQueue counts misses that carried the adaptive-offload bit.
	EmccOffloadQueue = "emcc/offload-aes-queue"
	// EmccL2CtrHit/Miss classify the serial L2 counter probe.
	EmccL2CtrHit  = "emcc/l2-counter-hit"
	EmccL2CtrMiss = "emcc/l2-counter-miss"
	// EmccDynamicOffMiss counts offload decisions taken on a dynamic
	// (monitor-driven) policy miss.
	EmccDynamicOffMiss = "emcc/dynamic-off-miss"
)

// Counter-free direct-cipher design keys (CtrBipBip / CtrInSRAM), recorded
// by both simulators under the same names so the differential harness can
// compare cipher-operation counts directly (the Emcc* pattern).
const (
	BipBipDecryptOps = "bipbip/decrypt-ops" // per DRAM data fill
	BipBipEncryptOps = "bipbip/encrypt-ops" // per data writeback
	InSRAMDecryptOps = "insram/decrypt-ops" // per DRAM data fill
	InSRAMEncryptOps = "insram/encrypt-ops" // per data writeback
)

// Timing-simulator (tsim) keys.
const (
	TsimLoad       = "tsim/load"
	TsimStore      = "tsim/store"
	TsimL2DataMiss = "tsim/l2-data-miss"
	TsimL2Prefetch = "tsim/l2-prefetch"

	TsimLLCDataAccess = "tsim/llc-data-access"
	TsimLLCDataMiss   = "tsim/llc-data-miss"

	// Aggregate LLC counter-probe classification (all probes, including
	// the MC's re-probes for offloads and tree recursion).
	TsimCtrLLCLookup = "tsim/ctr-llc-lookup"
	TsimCtrLLCHit    = "tsim/ctr-llc-hit"
	TsimCtrLLCMiss   = "tsim/ctr-llc-miss"
	// The speculative-probe subset (counterAccessFromL2 only), the part
	// structurally shared with fsim's model — see check.rulesFor.
	TsimCtrSpecLLCLookup = "tsim/ctr-spec-llc-lookup"
	TsimCtrSpecLLCHit    = "tsim/ctr-spec-llc-hit"
	TsimCtrSpecLLCMiss   = "tsim/ctr-spec-llc-miss"

	TsimCtrMissOnchip          = "tsim/ctr-miss-onchip"
	TsimMCDataFill             = "tsim/mc-data-fill"
	TsimMCRejectedWhileBlocked = "tsim/mc-rejected-while-blocked"
	TsimDRAMQueueFullRetry     = "tsim/dram-queue-full-retry"

	// Latency accumulators observe integer picoseconds (sim.Time values
	// verbatim), so their float64 sums stay exact integers.
	TsimCryptoExposureL2PS  = "tsim/crypto-exposure-l2-ps"
	TsimCryptoExposureMCPS  = "tsim/crypto-exposure-mc-ps"
	TsimL2ReadMissLatencyPS = "tsim/l2-read-miss-latency-ps"
)

// DRAM model keys. The qdelay/access families are indexed by request kind
// (data vs counter traffic) and direction; internal/dram holds lookup
// tables over these constants so the hot path never formats a key.
const (
	DramRowHit      = "dram/row-hit"
	DramRowClosed   = "dram/row-closed"
	DramRowConflict = "dram/row-conflict"

	DramQDelayDataRead   = "dram/qdelay/data/read"
	DramQDelayDataWrite  = "dram/qdelay/data/write"
	DramQDelayCtrRead    = "dram/qdelay/counter/read"
	DramQDelayCtrWrite   = "dram/qdelay/counter/write"
	DramQDelayOvfL0Read  = "dram/qdelay/overflow-l0/read"
	DramQDelayOvfL0Write = "dram/qdelay/overflow-l0/write"
	DramQDelayOvfHiRead  = "dram/qdelay/overflow-hi/read"
	DramQDelayOvfHiWrite = "dram/qdelay/overflow-hi/write"

	DramAccessDataRead   = "dram/access/data/read"
	DramAccessDataWrite  = "dram/access/data/write"
	DramAccessCtrRead    = "dram/access/counter/read"
	DramAccessCtrWrite   = "dram/access/counter/write"
	DramAccessOvfL0Read  = "dram/access/overflow-l0/read"
	DramAccessOvfL0Write = "dram/access/overflow-l0/write"
	DramAccessOvfHiRead  = "dram/access/overflow-hi/read"
	DramAccessOvfHiWrite = "dram/access/overflow-hi/write"
)

// Counter-overflow engine keys (internal/mc).
const (
	OverflowEvents        = "overflow/events"
	OverflowBlocks        = "overflow/blocks"
	OverflowBlockedEvents = "overflow/blocked-events"
)

// Per-request tracing aggregate keys (internal/obs). The per-segment
// family "obs/seg/<segment>-ns" and the user-named "obs/sample/<name>" /
// "obs/event/<name>" families are dynamic by design and stay out of the
// registry; their call sites carry //lint:dynamic-key.
const (
	ObsReqTraced  = "obs/req-traced"
	ObsReqStore   = "obs/req-store"
	ObsReqMerged  = "obs/req-merged"
	ObsReqLLCMiss = "obs/req-llc-miss"
	ObsReqOffload = "obs/req-offload"

	ObsReqLatencyNS        = "obs/req-latency-ns"
	ObsExposedDecryptNS    = "obs/exposed-decrypt-ns"
	ObsOverlappedDecryptNS = "obs/overlapped-decrypt-ns"

	ObsFlowL2Miss  = "obs/flow/l2-miss"
	ObsFlowLLCMiss = "obs/flow/llc-miss"

	ObsCtrSrcL2  = "obs/ctr-src/l2"
	ObsCtrSrcLLC = "obs/ctr-src/llc"
	ObsCtrSrcMC  = "obs/ctr-src/mc"

	ObsDecryptAtL2 = "obs/decrypt-at/l2"
	ObsDecryptAtMC = "obs/decrypt-at/mc"

	// Latency histograms (internal/metrics cells). The per-segment family
	// "obs/hist/seg/<segment>-ns" is dynamic like "obs/seg/<segment>-ns";
	// the two distributions every consumer reads by name are registered.
	ObsReqLatencyHist     = "obs/hist/req-latency-ns"
	ObsExposedDecryptHist = "obs/hist/exposed-decrypt-ns"
)

// Flight-recorder keys (internal/metrics.Recorder wired by tsim).
const (
	// FlightIntervals counts interval samples taken by the recorder.
	FlightIntervals = "flight/intervals"
	// FlightDropped counts intervals evicted from the bounded ring.
	FlightDropped = "flight/dropped"
)
