package sim

import (
	"testing"
	"time"
)

func TestNSConversion(t *testing.T) {
	cases := []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{1, 1000},
		{13.75, 13750},
		{0.0005, 1}, // rounds to nearest picosecond
		{-2, -2000},
	}
	for _, c := range cases {
		if got := NS(c.ns); got != c.want {
			t.Errorf("NS(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestNanoseconds(t *testing.T) {
	if got := Time(13750).Nanoseconds(); got != 13.75 {
		t.Errorf("Nanoseconds() = %v, want 13.75", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(300, func() { order = append(order, 3) })
	e.At(100, func() { order = append(order, 1) })
	e.At(200, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 300 {
		t.Errorf("clock = %d, want 300", e.Now())
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

// TestLateClassOrder pins the late class the DRAM model and tsim's seams
// rely on: at one timestamp every ordinary event runs first, then the late
// events by key, and equal keys in schedule order — whatever order they
// were scheduled in, and even when an ordinary event is scheduled for the
// same instant by a late one.
func TestLateClassOrder(t *testing.T) {
	e := New()
	var order []string
	note := func(x any) { order = append(order, x.(string)) }
	e.AtCallLate(50, 2, note, "late2")
	e.AtCall(50, note, "ord-a")
	e.AtCallLate(50, 1, note, "late1-a")
	e.AtCallLate(50, 1, func(x any) {
		note(x)
		e.AtCall(50, note, "ord-from-late")
	}, "late1-b")
	e.AtCall(50, note, "ord-b")
	e.AtCallLate(40, 9, note, "late-earlier")
	e.Run()
	want := []string{"late-earlier", "ord-a", "ord-b", "late1-a", "late1-b", "ord-from-late", "late2"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	e := New()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(10, chain)
		}
	}
	e.After(10, chain)
	e.Run()
	if count != 5 {
		t.Fatalf("chained %d events, want 5", count)
	}
	if e.Now() != 50 {
		t.Errorf("clock = %d, want 50", e.Now())
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := New()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran %d events after drain, want 3", ran)
	}
}

// TestRunUntilPastHorizonThenNear moves the clock past the ring's horizon
// while only far-heap events are pending, then schedules near events
// around them: the near ones land in the ring at slots that have wrapped,
// beside far-heap events at the same timestamps, and everything must run
// in (time, class, key, schedule) order.
func TestRunUntilPastHorizonThenNear(t *testing.T) {
	const horizon = ringSlots << bucketShift
	e := New()
	var order []string
	note := func(x any) { order = append(order, x.(string)) }
	e.AtCallLate(3*horizon, 1, note, "far-late@3H")
	e.AtCall(3*horizon, note, "far@3H")
	e.AtCall(2*horizon+5, note, "far@2H+5")
	if len(e.q.far) != 3 {
		t.Fatalf("far heap holds %d events, want all 3", len(e.q.far))
	}
	e.RunUntil(2 * horizon)
	if len(order) != 0 || e.Now() != 2*horizon {
		t.Fatalf("RunUntil(2H) ran %v and left the clock at %d, want nothing run and %d", order, e.Now(), 2*horizon)
	}
	e.AtCall(2*horizon+5, note, "near@2H+5")
	e.AtCallLate(2*horizon+5, 0, note, "near-late@2H+5")
	e.AtCall(2*horizon+1, note, "near@2H+1")
	e.AtCall(3*horizon-1, note, "near@3H-1")
	e.AtCallLate(3*horizon, 0, note, "past-late@3H")
	e.AtCall(3*horizon, note, "past@3H")
	if len(e.q.far) != 5 {
		t.Fatalf("far heap holds %d events, want the 3 far ones and the 2 at 3H", len(e.q.far))
	}
	e.Run()
	want := []string{
		"near@2H+1", "far@2H+5", "near@2H+5", "near-late@2H+5", "near@3H-1",
		"far@3H", "past@3H", "past-late@3H", "far-late@3H",
	}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := New()
	e.RunFor(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	e.RunFor(50)
	if e.Now() != 150 {
		t.Fatalf("clock = %d, want 150", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestStepsCountsExecutedEvents(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("steps = %d, want 7", e.Steps())
	}
}

// TestEveryStopsWhenWorkDrains proves a periodic sampler cannot keep Run
// alive: once the simulation's own events are exhausted, the tick sees an
// empty queue and does not re-arm.
func TestEveryStopsWhenWorkDrains(t *testing.T) {
	e := New()
	var ticks []Time
	e.Every(10, func(now Time) { ticks = append(ticks, now) })
	e.At(35, func() {})
	e.Run()
	// Ticks at 10, 20, 30; the tick at 40 fires (the 35-event was pending
	// when the 30-tick re-armed) and finds nothing left, so no 50-tick.
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}
}

// TestCoexistingTickersTerminate is the two-sampler regression: multiple
// Every loops must judge liveness against real work, not each other. With
// the naive Pending() > 0 re-arm rule, any two tickers keep the engine
// alive forever once the simulation drains.
func TestCoexistingTickersTerminate(t *testing.T) {
	e := New()
	var a, b, c int
	e.Every(10, func(Time) { a++ })
	e.Every(7, func(Time) { b++ })
	e.Every(25, func(Time) { c++ })
	e.At(60, func() {})
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("three tickers kept each other alive past the last real event")
	}
	if a == 0 || b == 0 || c == 0 {
		t.Fatalf("ticker starved: %d/%d/%d ticks", a, b, c)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left pending", e.Pending())
	}
	// Every ticker ran while real work existed: at least floor(60/period).
	if a < 6 || b < 8 || c < 2 {
		t.Fatalf("tickers stopped early: %d/%d/%d ticks", a, b, c)
	}
}

func TestEveryRejectsNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	New().Every(0, func(Time) {})
}
