package dram

import (
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

func testDRAM() (*sim.Engine, *stats.Set, *DRAM, *config.Config) {
	eng := sim.New()
	st := stats.NewSet()
	cfg := config.Default()
	d := New(eng, st, &cfg)
	return eng, st, d, &cfg
}

// read issues a read and returns its completion time after draining.
func read(t *testing.T, eng *sim.Engine, d *DRAM, block uint64, at sim.Time) sim.Time {
	t.Helper()
	var done sim.Time
	eng.At(at, func() {
		ok := d.Enqueue(&Request{Block: block, Kind: TrafficData, Done: func(c sim.Time) { done = c }})
		if !ok {
			t.Fatal("enqueue rejected")
		}
	})
	eng.Run()
	if done == 0 {
		t.Fatal("read never completed")
	}
	return done
}

func TestColdReadPaysActivatePlusCAS(t *testing.T) {
	eng, _, d, cfg := testDRAM()
	done := read(t, eng, d, 0, 0)
	want := cfg.TRCD + cfg.TCL + cfg.BurstLatency
	if done != want {
		t.Fatalf("cold read = %v ns, want %v ns", done.Nanoseconds(), want.Nanoseconds())
	}
}

func TestRowHitIsFaster(t *testing.T) {
	eng, _, d, cfg := testDRAM()
	first := read(t, eng, d, 0, 0)
	second := read(t, eng, d, 1, first+1) // same row
	lat := second - (first + 1)
	want := cfg.TCL + cfg.BurstLatency
	if lat != want {
		t.Fatalf("row hit = %v ns, want %v ns", lat.Nanoseconds(), want.Nanoseconds())
	}
}

func TestRowTimeoutClosesRow(t *testing.T) {
	eng, _, d, cfg := testDRAM()
	first := read(t, eng, d, 0, 0)
	// Well past the 500 ns timeout: row closed, but no conflict precharge.
	second := read(t, eng, d, 1, first+cfg.RowTimeout*3)
	lat := second - (first + cfg.RowTimeout*3)
	want := cfg.TRCD + cfg.TCL + cfg.BurstLatency
	if lat != want {
		t.Fatalf("post-timeout read = %v ns, want %v ns", lat.Nanoseconds(), want.Nanoseconds())
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	eng, _, d, cfg := testDRAM()
	// Find a second block on the same bank but a different row.
	base := d.Mapper().Map(0)
	conflict := uint64(0)
	for b := uint64(1); b < 1<<22; b++ {
		l := d.Mapper().Map(b)
		if d.Mapper().BankID(l) == d.Mapper().BankID(base) && l.Channel == base.Channel && l.Row != base.Row {
			conflict = b
			break
		}
	}
	if conflict == 0 {
		t.Fatal("no conflicting block found")
	}
	first := read(t, eng, d, 0, 0)
	second := read(t, eng, d, conflict, first+1)
	lat := second - (first + 1)
	want := cfg.TRP + cfg.TRCD + cfg.TCL + cfg.BurstLatency
	if lat != want {
		t.Fatalf("conflict read = %v ns, want %v ns", lat.Nanoseconds(), want.Nanoseconds())
	}
}

func TestBankParallelismBeatsSerialisation(t *testing.T) {
	eng, _, d, _ := testDRAM()
	// 16 cold reads to different banks: with overlapped banks the last
	// completion should be far sooner than 16 serial accesses.
	rowBlocks := uint64(8 << 10 / 64)
	var last sim.Time
	n := 0
	eng.At(0, func() {
		for i := uint64(0); i < 16; i++ {
			d.Enqueue(&Request{Block: i * rowBlocks * 7, Kind: TrafficData, Done: func(c sim.Time) {
				n++
				if c > last {
					last = c
				}
			}})
		}
	})
	eng.Run()
	if n != 16 {
		t.Fatalf("completed %d reads, want 16", n)
	}
	serial := 16 * sim.NS(30)
	if last >= serial {
		t.Fatalf("16 overlapped reads took %v ns (serial would be %v ns)", last.Nanoseconds(), serial.Nanoseconds())
	}
}

func TestWritesAreDeprioritised(t *testing.T) {
	eng, st, d, _ := testDRAM()
	eng.At(0, func() {
		for i := uint64(0); i < 20; i++ {
			d.Enqueue(&Request{Block: i, Write: true, Kind: TrafficData})
			d.Enqueue(&Request{Block: 1 << 20 / 64 * i, Kind: TrafficData})
		}
	})
	eng.Run()
	rd := st.Accum("dram/qdelay/data/read").Mean()
	wr := st.Accum("dram/qdelay/data/write").Mean()
	if wr <= rd {
		t.Fatalf("write qdelay %.1f <= read qdelay %.1f; writes should wait", wr, rd)
	}
}

func TestQueueCapRejects(t *testing.T) {
	eng, _, d, cfg := testDRAM()
	rejected := false
	eng.At(0, func() {
		for i := 0; i < cfg.ReadQueueCap+10; i++ {
			if !d.Enqueue(&Request{Block: uint64(i), Kind: TrafficData}) {
				rejected = true
			}
		}
	})
	eng.RunUntil(1) // only the enqueue event
	if !rejected {
		t.Fatal("overfull read queue accepted everything")
	}
	eng.Run()
}

func TestBusyFractionAccumulates(t *testing.T) {
	eng, _, d, _ := testDRAM()
	end := read(t, eng, d, 0, 0)
	bf := d.BusyFraction(0, end)
	if bf[TrafficData] <= 0 {
		t.Fatal("no data bus time recorded")
	}
	if bf[TrafficCounter] != 0 {
		t.Fatal("phantom counter traffic")
	}
}

func TestRefreshEventuallyStallsBank(t *testing.T) {
	eng, st, d, cfg := testDRAM()
	// Issue reads spread over several refresh intervals; the run must
	// complete and the clock must pass multiple tREFI periods.
	n := 0
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * cfg.TREFI
		eng.At(at, func() {
			d.Enqueue(&Request{Block: 0, Kind: TrafficData, Done: func(sim.Time) { n++ }})
		})
	}
	eng.Run()
	if n != 10 {
		t.Fatalf("completed %d reads across refreshes, want 10", n)
	}
	_ = st
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng, _, d, _ := testDRAM()
		var last sim.Time
		eng.At(0, func() {
			for i := uint64(0); i < 50; i++ {
				d.Enqueue(&Request{Block: i * 977, Kind: TrafficData, Done: func(c sim.Time) { last = c }})
			}
		})
		eng.Run()
		return last
	}
	if run() != run() {
		t.Fatal("identical schedules diverged")
	}
}

func TestRowStateAccounting(t *testing.T) {
	eng, st, d, cfg := testDRAM()
	first := read(t, eng, d, 0, 0)
	second := read(t, eng, d, 1, first+1)       // hit
	read(t, eng, d, 2, second+cfg.RowTimeout*3) // closed by timeout
	if st.Counter("dram/row-hit") != 1 {
		t.Fatalf("row hits = %d, want 1", st.Counter("dram/row-hit"))
	}
	if st.Counter("dram/row-closed") != 2 { // cold open + post-timeout
		t.Fatalf("row closed = %d, want 2", st.Counter("dram/row-closed"))
	}
}
