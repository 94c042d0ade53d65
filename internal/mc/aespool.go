// Package mc implements the memory-controller side of the secure-memory
// engine: AES unit pools (latency + bandwidth servers), the split-counter
// overflow engine with the Sec. V throttling rules, and the metadata home
// that owns counter state, the MC's private counter cache, and counter
// verification/invalidation.
package mc

import (
	"repro/internal/inv"
	"repro/internal/sim"
)

// AESPool models a group of AES units as a bandwidth-limited server: ops
// issue at a fixed rate (the pool's aggregate bandwidth) and each op
// completes a fixed latency after it issues (Sec. V: 14 ns latency,
// 2.6 G ops/s peak for the whole processor; EMCC moves a fraction to L2s).
type AESPool struct {
	eng      *sim.Engine
	rec      *inv.Recorder
	interval sim.Time // time between op issues = 1/bandwidth
	latency  sim.Time
	nextFree sim.Time // next issue slot for latency-critical (read) ops
	// lowNextFree is the issue horizon for background (write/overflow)
	// ops: encryption for writebacks is never on a read's critical path,
	// so reads preempt it rather than queueing behind write-drain bursts.
	lowNextFree sim.Time

	// Reserved counts total ops ever reserved (stats).
	Reserved int64
}

// NewAESPool builds a pool with the given ops/second bandwidth.
func NewAESPool(eng *sim.Engine, opsPerSec float64, latency sim.Time) *AESPool {
	if opsPerSec <= 0 {
		panic("mc: AES pool bandwidth must be positive")
	}
	return &AESPool{
		eng:      eng,
		rec:      eng.Recorder(),
		interval: sim.Time(float64(sim.Second)/opsPerSec + 0.5),
		latency:  latency,
	}
}

// QueueDelay reports how long a newly arriving op would wait before
// issuing — the signal EMCC's adaptive-offload decision uses (Sec. IV-D).
func (p *AESPool) QueueDelay() sim.Time {
	d := p.nextFree - p.eng.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Reserve books n latency-critical AES operations (decryption and
// verification of reads) starting no earlier than `at` and reports when the
// last result is available. Read ops preempt background encryption work.
func (p *AESPool) Reserve(n int, at sim.Time) sim.Time {
	if n <= 0 {
		return at
	}
	start := at
	if now := p.eng.Now(); start < now {
		start = now
	}
	if start < p.nextFree {
		start = p.nextFree
	}
	last := start + sim.Time(n-1)*p.interval
	if p.rec.On() && last+p.interval < p.nextFree {
		p.rec.Failf("mc", "aes pool critical horizon moved backwards: %d ps -> %d ps", p.nextFree, last+p.interval)
	}
	p.nextFree = last + p.interval
	// Preempted background work resumes after the critical ops.
	if p.lowNextFree < p.nextFree {
		p.lowNextFree = p.nextFree
	}
	p.Reserved += int64(n)
	if p.rec.On() {
		p.checkUtilisation()
	}
	return last + p.latency
}

// ReserveLow books n background AES operations (writeback encryption,
// overflow re-encryption). They consume bandwidth after every pending
// critical op and never delay subsequent Reserve calls.
func (p *AESPool) ReserveLow(n int, at sim.Time) sim.Time {
	if n <= 0 {
		return at
	}
	start := at
	if now := p.eng.Now(); start < now {
		start = now
	}
	if start < p.lowNextFree {
		start = p.lowNextFree
	}
	last := start + sim.Time(n-1)*p.interval
	if p.rec.On() && last+p.interval < p.lowNextFree {
		p.rec.Failf("mc", "aes pool background horizon moved backwards: %d ps -> %d ps", p.lowNextFree, last+p.interval)
	}
	p.lowNextFree = last + p.interval
	p.Reserved += int64(n)
	if p.rec.On() {
		p.checkUtilisation()
	}
	return last + p.latency
}

// Latency reports the per-op latency (the MC controller derives an op's
// issue time from it).
func (p *AESPool) Latency() sim.Time { return p.latency }

// Horizon reports the time by which every reserved op will have issued:
// the later of the critical and background issue horizons.
func (p *AESPool) Horizon() sim.Time {
	if p.lowNextFree > p.nextFree {
		return p.lowNextFree
	}
	return p.nextFree
}

// Utilisation reports the fraction of the pool's issue bandwidth consumed
// over [0, Horizon]. A bandwidth server can never exceed 1.0: every
// reservation of n ops advances a horizon by at least n*interval, so
// Reserved*interval ≤ Horizon always — the verification harness asserts it.
func (p *AESPool) Utilisation() float64 {
	h := p.Horizon()
	if h <= 0 {
		return 0
	}
	return float64(p.Reserved) * float64(p.interval) / float64(h)
}

// checkUtilisation asserts the bandwidth bound in exact integer arithmetic.
func (p *AESPool) checkUtilisation() {
	rec := p.rec
	if !rec.On() {
		return
	}
	if p.Reserved*int64(p.interval) > int64(p.Horizon()) {
		rec.Failf("mc", "aes pool over-committed: %d ops * %d ps/op > horizon %d ps (utilisation %.3f)",
			p.Reserved, p.interval, p.Horizon(), p.Utilisation())
	}
}
