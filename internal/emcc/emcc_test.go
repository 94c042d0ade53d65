package emcc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/noc"
	"repro/internal/sim"
)

func testPolicy() Policy {
	cfg := config.Default()
	mesh := noc.New(cfg.MeshCols, cfg.MeshRows, cfg.NoCHopLatency, cfg.NoCBaseOneWay)
	return NewPolicy(&cfg, mesh, nil)
}

func TestPolicyDerivation(t *testing.T) {
	p := testPolicy()
	if p.LookupDelay <= 0 {
		t.Fatal("lookup delay J must be positive")
	}
	// The AES gate approximates one LLC hit round trip (~17 ns with the
	// Table I mesh).
	if w := p.LLCHitWait.Nanoseconds(); w < 12 || w > 22 {
		t.Fatalf("LLCHitWait = %.1f ns, want ~17", w)
	}
	// Offload threshold approximates the recoverable response travel.
	if o := p.OffloadThreshold.Nanoseconds(); o < 8 || o > 20 {
		t.Fatalf("OffloadThreshold = %.1f ns, want ~13", o)
	}
	if p.L2CounterCap != 32<<10 {
		t.Fatalf("L2 counter cap = %d, want 32 KiB", p.L2CounterCap)
	}
}

func TestShouldOffload(t *testing.T) {
	p := testPolicy()
	if p.ShouldOffload(0) {
		t.Fatal("idle AES pool should never offload")
	}
	if !p.ShouldOffload(p.OffloadThreshold + sim.NS(1)) {
		t.Fatal("deep AES queue should offload")
	}
}

func TestAESOpCountsMatchSectionV(t *testing.T) {
	// Sec. V: "each memory read calls for five AES calculations ...
	// each memory writeback calls for eight".
	if AESOpsPerRead != 5 {
		t.Fatalf("read ops = %d, want 5", AESOpsPerRead)
	}
	if AESOpsPerWrite != 8 {
		t.Fatalf("write ops = %d, want 8", AESOpsPerWrite)
	}
}
