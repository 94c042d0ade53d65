// Package emcc encodes the decision rules of Eager Memory Cryptography in
// Caches (Sec. IV) — the paper's contribution — in a form shared by the
// functional (Pintool-style) and timing (gem5-style) simulators:
//
//   - Serial counter lookup in L2 only after a data read miss (never for
//     writebacks), delayed by 'J' spare-cycle latency (Sec. IV-C).
//   - Speculative parallel counter fetch to LLC when the counter also
//     misses in L2, with the 32 KB occupancy cap.
//   - AES start gating: L2 waits one LLC-hit latency before starting AES so
//     LLC hits never waste AES bandwidth (Sec. IV-D).
//   - Adaptive offload: when the L2 AES queue delay exceeds the latency
//     EMCC could save, the decision bit in the miss request sends
//     decryption/verification back to the MC (Sec. IV-D).
//   - MC-side handling whenever the data's counter missed on-chip
//     (L2+LLC): the MC decrypts/verifies and tags the response (Sec. IV-D).
//   - Counter-block invalidation in L2 when the MC updates a counter while
//     serving a writeback (Sec. IV-C, Fig 23).
package emcc

import (
	"repro/internal/config"
	"repro/internal/inv"
	"repro/internal/noc"
	"repro/internal/sim"
)

// The metric vocabulary both simulators share for EMCC events lives in
// the central key registry (internal/stats/keys.go, the Emcc* constants)
// so figures and the differential harness read one set of names.

// Policy holds the tuned decision parameters.
type Policy struct {
	// LookupDelay is 'J' (Fig 10): spare-cycle delay of the serial
	// counter lookup in L2 after a data miss.
	LookupDelay sim.Time
	// LLCHitWait gates AES start: only when the data response has not
	// returned within this window does L2 commit AES bandwidth. Set to
	// the expected LLC hit round trip.
	LLCHitWait sim.Time
	// OffloadThreshold is the AES queue delay above which decryption is
	// offloaded back to the MC: queuing longer than the latency EMCC
	// could save (roughly the MC-to-L2 response travel time) is a loss.
	OffloadThreshold sim.Time
	// L2CounterCap bounds counter bytes resident in L2 (32 KB, Sec. V).
	L2CounterCap int64
	// OffloadDisabled removes the adaptive offload (ablation).
	OffloadDisabled bool
}

// NewPolicy derives the policy from the configuration and mesh geometry,
// recording any gated validation failures on the run's invariant recorder
// (nil checks nothing).
func NewPolicy(cfg *config.Config, mesh *noc.Mesh, rec *inv.Recorder) Policy {
	// Expected LLC hit RTT from an L2: two mean one-way traversals plus
	// the slice's tag+data lookup.
	meanOneWay := mesh.MeanOneWay(mesh.CoreTile(0))
	llcHit := 2*meanOneWay + cfg.L3TagLatency + cfg.L3DataLatency
	// The latency EMCC saves by computing at L2 is roughly the response
	// travel time MC -> slice -> L2 (two mean traversals): AES overlaps
	// with the data crossing the NoC instead of serialising at the MC.
	save := 2 * meanOneWay
	if cfg.EMCCDisableAESGate {
		llcHit = 0
	}
	p := Policy{
		LookupDelay:      cfg.EMCCLookupDelay,
		LLCHitWait:       llcHit,
		OffloadThreshold: save,
		L2CounterCap:     cfg.EMCCL2CounterBytes,
		OffloadDisabled:  cfg.EMCCDisableOffload,
	}
	// A policy with negative waits or a non-positive counter budget would
	// schedule events in the past or starve the L2 of counters entirely.
	if rec.On() {
		if p.LookupDelay < 0 || p.LLCHitWait < 0 || p.OffloadThreshold < 0 {
			rec.Failf("emcc", "negative policy delay: lookup=%d llc-wait=%d offload=%d", p.LookupDelay, p.LLCHitWait, p.OffloadThreshold)
		}
		if p.L2CounterCap <= 0 {
			rec.Failf("emcc", "non-positive L2 counter budget %d bytes", p.L2CounterCap)
		}
	}
	return p
}

// ShouldOffload reports whether a new L2 miss should carry the offload
// decision bit given the current L2 AES pool queue delay.
func (p Policy) ShouldOffload(aesQueueDelay sim.Time) bool {
	if p.OffloadDisabled {
		return false
	}
	return aesQueueDelay > p.OffloadThreshold
}

// AESOpsPerRead is the AES work to decrypt and verify one 64 B read: four
// OTPs plus one MAC AES (Sec. V).
const AESOpsPerRead = 5

// AESOpsPerWrite is the AES work to encrypt and re-MAC one 64 B writeback
// (Sec. V).
const AESOpsPerWrite = 8
