package run

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// miniature returns a scenario cheap enough for unit tests.
func miniature(mode Mode, bench string, mutate func(*config.Config)) Scenario {
	cfg := config.Default()
	cfg.Counter = config.CtrMorphable
	if mutate != nil {
		mutate(&cfg)
	}
	return Scenario{
		Mode: mode, Benchmark: bench, Config: cfg,
		Seed: 1, Refs: 20_000, Warmup: 10_000,
		Scale: workload.TestScale(), Label: bench,
	}
}

// recorded records refs references of bench at seed and the test scale,
// and reads the stream back.
func recorded(t *testing.T, bench string, seed uint64, refs int64) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, bench, 4, seed, refs, workload.TestScale()); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestScenarioKeyIgnoresLabel(t *testing.T) {
	a := miniature(Functional, "canneal", nil)
	// The key of a scenario without Replay is pinned: a change to the key
	// derivation would orphan every result-cache entry.
	if got, want := a.Key(), "f8198e1aaeaa53dae6c85384"; got != want {
		t.Fatalf("key = %s, want %s", got, want)
	}
	b := a
	b.Label = "something else entirely"
	if a.Key() != b.Key() {
		t.Fatal("label leaked into the scenario key")
	}
	c := a
	c.Seed = 2
	if a.Key() == c.Key() {
		t.Fatal("seed change did not change the key")
	}
	d := miniature(Functional, "canneal", func(cfg *config.Config) { cfg.Channels = 8 })
	if a.Key() == d.Key() {
		t.Fatal("config mutation did not change the key")
	}
	e := a
	e.Mode = Timing
	if a.Key() == e.Key() {
		t.Fatal("mode change did not change the key")
	}
	f := a
	f.Trace = true
	if a.Key() == f.Key() {
		t.Fatal("trace flag did not change the key")
	}
	g := a
	g.Replay = recorded(t, "canneal", 1, 400)
	if a.Key() == g.Key() {
		t.Fatal("replaying a trace did not change the key")
	}
	h := g
	h.Replay = recorded(t, "canneal", 2, 400)
	if g.Key() == h.Key() {
		t.Fatal("replays of different traces share a key")
	}
}

func TestPlanDeduplicates(t *testing.T) {
	p := NewPlan()
	k1 := p.Add(miniature(Functional, "canneal", nil))
	k2 := p.Add(miniature(Functional, "canneal", nil))
	k3 := p.Add(miniature(Functional, "mcf", nil))
	if k1 != k2 {
		t.Fatal("identical scenarios got different keys")
	}
	if k1 == k3 {
		t.Fatal("distinct scenarios share a key")
	}
	if p.Len() != 2 {
		t.Fatalf("plan size = %d, want 2", p.Len())
	}
	if got := p.Scenarios(); got[0].Key() != k1 || got[1].Key() != k3 {
		t.Fatal("declaration order lost")
	}
}

// TestExecuteParallelMatchesSerial pins the core determinism claim: the
// outcome map is identical at any worker count.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	build := func() *Plan {
		p := NewPlan()
		p.Add(miniature(Functional, "canneal", nil))
		p.Add(miniature(Functional, "mcf", nil))
		p.Add(miniature(Timing, "canneal", nil))
		p.Add(miniature(Timing, "canneal", func(c *config.Config) { c.Channels = 2 }))
		return p
	}
	serial, repS, err := Execute(build(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, repP, err := Execute(build(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if repS.Executed != 4 || repP.Executed != 4 {
		t.Fatalf("executed %d / %d, want 4 / 4", repS.Executed, repP.Executed)
	}
	if len(serial) != len(par) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial), len(par))
	}
	for k, a := range serial {
		b := par[k]
		if b == nil {
			t.Fatalf("parallel run missing outcome %s", k)
		}
		aj, err := a.Stats.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		bj, err := b.Stats.StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Errorf("outcome %s stats differ between serial and parallel", k)
		}
		if !reflect.DeepEqual(a.Timing, b.Timing) {
			t.Errorf("outcome %s timing differs between serial and parallel", k)
		}
	}
}

func TestExecuteServesFromCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Plan {
		p := NewPlan()
		p.Add(miniature(Functional, "canneal", nil))
		p.Add(miniature(Timing, "mcf", nil))
		return p
	}
	first, rep, err := Execute(build(), Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 2 || rep.Cached != 0 {
		t.Fatalf("first run: executed=%d cached=%d, want 2/0", rep.Executed, rep.Cached)
	}
	var log bytes.Buffer
	second, rep, err := Execute(build(), Options{Workers: 2, Cache: cache, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 0 || rep.Cached != 2 {
		t.Fatalf("second run: executed=%d cached=%d, want 0/2", rep.Executed, rep.Cached)
	}
	if !strings.Contains(log.String(), "(cached)") {
		t.Fatalf("cache hits not logged: %q", log.String())
	}
	for k, a := range first {
		b := second[k]
		if b == nil {
			t.Fatalf("cached run missing outcome %s", k)
		}
		aj, _ := a.Stats.StableJSON()
		bj, _ := b.Stats.StableJSON()
		if !bytes.Equal(aj, bj) {
			t.Errorf("outcome %s changed across the cache round trip", k)
		}
		if (a.Timing == nil) != (b.Timing == nil) {
			t.Fatalf("outcome %s timing presence changed", k)
		}
		if a.Timing != nil && !reflect.DeepEqual(*a.Timing, *b.Timing) {
			t.Errorf("outcome %s timing changed across the cache round trip:\n%+v\nvs\n%+v", k, *a.Timing, *b.Timing)
		}
	}
}

func TestCacheRejectsCorruptAndForeignEntries(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := miniature(Functional, "canneal", nil)
	key := s.Key()
	// Corrupt JSON is a miss.
	if err := os.WriteFile(filepath.Join(cache.Dir(), key+".json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	// Wrong schema is a miss.
	if err := os.WriteFile(filepath.Join(cache.Dir(), key+".json"), []byte(`{"schema":99,"outcome":{"stats":{"counters":{},"accumulators":{}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("foreign-schema entry served")
	}
	// A real Put repairs it.
	o, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(key, o); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("valid entry missed")
	}
}

// TestCacheRejectsAlteredEntries: an entry whose numbers were edited in
// place (still valid JSON), or one copied under another scenario's key, is
// a miss that the next Put repairs.
func TestCacheRejectsAlteredEntries(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := miniature(Functional, "canneal", nil)
	key := s.Key()
	o, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(key, o); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cache.Dir(), key+".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Bump the first digit of the first number in the outcome.
	at := bytes.Index(good, []byte(`"outcome"`))
	if at < 0 {
		t.Fatalf("no outcome in %s", good)
	}
	loc := regexp.MustCompile(`":\s*[1-9]`).FindIndex(good[at:])
	if loc == nil {
		t.Fatalf("no number in the outcome of %s", good)
	}
	edited := bytes.Clone(good)
	d := &edited[at+loc[1]-1]
	if *d == '9' {
		*d = '8'
	} else {
		*d++
	}
	if !json.Valid(edited) {
		t.Fatal("edited entry is not valid JSON")
	}
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("entry with an edited number served")
	}
	if err := cache.Put(key, o); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(key); !ok {
		t.Fatal("repaired entry missed")
	}

	// The same entry under another scenario's key is not that scenario's.
	other := miniature(Functional, "canneal", nil)
	other.Seed++
	if err := os.WriteFile(filepath.Join(cache.Dir(), other.Key()+".json"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(other.Key()); ok {
		t.Fatal("entry copied from another key served")
	}
}

func TestResolveExecutesThenHits(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := miniature(Timing, "canneal", nil)
	_, executed, err := Resolve(&s, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("first Resolve did not execute")
	}
	o, executed, err := Resolve(&s, cache)
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Fatal("second Resolve re-executed")
	}
	if o.Timing == nil || o.Timing.SimulatedTime <= 0 {
		t.Fatalf("cached timing outcome degenerate: %+v", o.Timing)
	}
}

func TestExecuteSurfacesErrors(t *testing.T) {
	p := NewPlan()
	s := miniature(Functional, "no-such-benchmark", nil)
	p.Add(s)
	if _, _, err := Execute(p, Options{Workers: 2}); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
	bad := miniature(Timing, "canneal", func(c *config.Config) { c.MemoryBytes = -1 })
	p2 := NewPlan()
	p2.Add(bad)
	if _, _, err := Execute(p2, Options{Workers: 1}); err == nil {
		t.Fatal("invalid config did not error")
	}
	// A trace not loaded by trace.Read has no digest to key its replay by.
	undigested := miniature(Functional, "canneal", nil)
	undigested.Replay = recorded(t, "canneal", 1, 400)
	undigested.Replay.Digest = ""
	if _, err := undigested.Execute(); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("replay without a digest: err = %v, want one naming the digest", err)
	}
}

// TestTracedScenarioCarriesHistograms pins the Trace plumbing end to end: a
// traced timing scenario's outcome snapshot holds the obs latency
// histograms, they survive the cache round trip, and the untraced twin
// (a distinct key) carries none.
func TestTracedScenarioCarriesHistograms(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := miniature(Timing, "canneal", nil)
	s.Trace = true
	o, executed, err := Resolve(&s, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !executed {
		t.Fatal("first Resolve did not execute")
	}
	h := o.Stats.Hist(stats.ObsReqLatencyHist)
	if h.Count == 0 {
		t.Fatal("traced outcome has an empty request-latency histogram")
	}
	cached, executed, err := Resolve(&s, cache)
	if err != nil {
		t.Fatal(err)
	}
	if executed {
		t.Fatal("second Resolve re-executed")
	}
	ch := cached.Stats.Hist(stats.ObsReqLatencyHist)
	if ch.Count != h.Count || ch.Quantile(0.99) != h.Quantile(0.99) {
		t.Fatalf("histogram changed across the cache round trip: %+v vs %+v", ch, h)
	}
	plain := miniature(Timing, "canneal", nil)
	po, err := plain.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if n := po.Stats.Hist(stats.ObsReqLatencyHist).Count; n != 0 {
		t.Fatalf("untraced outcome carries %d request-latency samples", n)
	}
}
