package inv

import (
	"sync"
	"testing"
)

// TestDisabledByDefault: a run's recorder field starts nil, which checks
// nothing; any recorder a run is given checks.
func TestDisabledByDefault(t *testing.T) {
	var nilRec *Recorder
	if nilRec.On() {
		t.Fatal("nil recorder reports checking on")
	}
	if !NewRecorder().On() {
		t.Fatal("new recorder reports checking off")
	}
}

func TestFailfRecords(t *testing.T) {
	r := NewRecorder()
	r.Failf("demo", "value %d out of range", 7)
	r.Failf("demo", "second")
	if r.Count() != 2 {
		t.Fatalf("Count = %d, want 2", r.Count())
	}
	vs := r.Violations()
	if len(vs) != 2 || vs[0].Component != "demo" || vs[0].Message != "value 7 out of range" {
		t.Fatalf("violations = %v", vs)
	}
	if got := vs[0].String(); got != "demo: value 7 out of range" {
		t.Fatalf("String = %q", got)
	}
}

func TestRecordingCap(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < maxRecorded+10; i++ {
		r.Failf("cap", "violation %d", i)
	}
	if n := len(r.Violations()); n != maxRecorded {
		t.Fatalf("stored %d violations, cap is %d", n, maxRecorded)
	}
	if r.Count() != int64(maxRecorded+10) {
		t.Fatalf("Count = %d, want %d", r.Count(), maxRecorded+10)
	}
}

// TestRecorderIsolation proves independent recorders never share state:
// failures on one are invisible to the other.
func TestRecorderIsolation(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	a.Failf("iso", "a only")
	if b.Count() != 0 {
		t.Fatalf("violation leaked: b=%d", b.Count())
	}
	if a.Count() != 1 {
		t.Fatalf("a.Count = %d, want 1", a.Count())
	}
}

// TestConcurrentFailf exercises one recorder from many goroutines under
// -race: Failf and Violations must be safe to interleave.
func TestConcurrentFailf(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Failf("race", "g%d-%d", g, i)
				_ = r.Violations()
				_ = r.On()
			}
		}(g)
	}
	wg.Wait()
	if r.Count() != 800 {
		t.Fatalf("Count = %d, want 800", r.Count())
	}
}
