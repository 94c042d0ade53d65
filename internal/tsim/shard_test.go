package tsim

import (
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shardSnap runs one canneal scenario and returns its stats snapshot.
func shardSnap(t *testing.T, mutate func(*config.Config), workers int) []byte {
	return shardSnapBench(t, "canneal", mutate, workers)
}

// shardSnapBench is shardSnap for an arbitrary benchmark name (including
// "+"-separated co-run mixes).
func shardSnapBench(t *testing.T, bench string, mutate func(*config.Config), workers int) []byte {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(&cfg, Options{
		Benchmark: bench, Seed: 7, Refs: 30_000, Warmup: 10_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if workers > 0 && s.shard != nil {
		s.shard.Workers = workers
	}
	s.Run()
	b, err := s.Stats().Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardMatchesSerial is the parity pillar in miniature: the sharded
// engine must produce byte-identical stats to the serial engine for the
// same scenario, at one and several domains, with single- and multi-
// channel DRAM.
func TestShardMatchesSerial(t *testing.T) {
	cases := []struct {
		name     string
		channels int
		domains  int
		cores    bool
	}{
		{"1ch-1dom", 1, 1, false},
		{"4ch-2dom", 4, 2, false},
		{"4ch-4dom", 4, 4, false},
		{"1ch-1dom-cores", 1, 1, true},
		{"4ch-4dom-cores", 4, 4, true},
		{"4ch-8dom-cores", 4, 8, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial := shardSnap(t, func(cfg *config.Config) {
				cfg.Channels = c.channels
			}, 0)
			sharded := shardSnap(t, func(cfg *config.Config) {
				cfg.Channels = c.channels
				cfg.Domains = c.domains
				cfg.ShardCores = c.cores
			}, 0)
			if string(serial) != string(sharded) {
				t.Errorf("sharded run (%d domains) diverged from the serial engine", c.domains)
			}
		})
	}
}

// TestShardCoRunMatchesSerial runs the BENCH_10 scenario shape — a 4-core
// mcf+canneal co-run, each core replaying its own stream into the shared
// sliced LLC — on the widest topology cut and requires byte-identical
// stats to the serial engine. Cross-core slice contention exercises seams
// a single-stream replay cannot: distinct L2 domains racing for one home
// slice at the same timestamp.
func TestShardCoRunMatchesSerial(t *testing.T) {
	serial := shardSnapBench(t, "mcf+canneal", func(cfg *config.Config) {
		cfg.Channels = 4
	}, 0)
	sharded := shardSnapBench(t, "mcf+canneal", func(cfg *config.Config) {
		cfg.Channels = 4
		cfg.Domains = 8
		cfg.ShardCores = true
	}, 3)
	if string(serial) != string(sharded) {
		t.Error("sharded co-run diverged from the serial engine")
	}
}

// TestShardWorkerCountParity pins the determinism guarantee the barrier
// design provides by construction: at a fixed domain count, the worker
// count must not influence a single byte of the result.
func TestShardWorkerCountParity(t *testing.T) {
	mutate := func(cfg *config.Config) {
		cfg.Channels = 4
		cfg.Domains = 4
	}
	one := shardSnap(t, mutate, 1)
	many := shardSnap(t, mutate, 5)
	if string(one) != string(many) {
		t.Error("worker count changed the sharded run's results")
	}
}

// TestShardWorkersReportsRunCount: ShardWorkers is 0 on the serial engine
// and otherwise the count the sharded engine will run on — the host-capped
// default, or the SetShardWorkers override clamped to the domain count.
func TestShardWorkersReportsRunCount(t *testing.T) {
	build := func(domains int) *Sim {
		t.Helper()
		cfg := config.Default()
		cfg.Channels = 4
		cfg.Domains = domains
		s, err := New(&cfg, Options{
			Benchmark: "canneal", Seed: 7, Refs: 1_000,
			Scale: workload.TestScale(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := build(0)
	serial.SetShardWorkers(4)
	if n := serial.ShardWorkers(); n != 0 {
		t.Errorf("serial engine reports %d shard workers, want 0", n)
	}
	s := build(4)
	if n := s.ShardWorkers(); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Errorf("default shard workers %d outside [1, GOMAXPROCS=%d]", n, runtime.GOMAXPROCS(0))
	}
	for _, w := range []int{1, 2, 3} {
		s.SetShardWorkers(w)
		if n := s.ShardWorkers(); n != w {
			t.Errorf("SetShardWorkers(%d): ShardWorkers()=%d", w, n)
		}
	}
	s.SetShardWorkers(1 << 20)
	if n := s.ShardWorkers(); n != s.shard.RunWorkers() || n >= 1<<20 {
		t.Errorf("SetShardWorkers(1<<20): ShardWorkers()=%d not clamped to the domain count", n)
	}
}

// TestShardedRejectsSerialOnlyInstrumentation: tracing and the flight
// recorder read cross-domain state mid-run, so both the config layer and
// the attach points reject them under sharding — with errors, not panics
// — while nil detach calls stay fine.
func TestShardedRejectsSerialOnlyInstrumentation(t *testing.T) {
	sharded := func(mutate func(*config.Config)) (*Sim, error) {
		cfg := config.Default()
		cfg.Domains = 2
		if mutate != nil {
			mutate(&cfg)
		}
		return New(&cfg, Options{
			Benchmark: "canneal", Seed: 7, Refs: 1_000,
			Scale: workload.TestScale(),
		})
	}

	// Declared at configuration time, the conflict is a config error.
	if _, err := sharded(func(c *config.Config) { c.Tracing = true }); err == nil {
		t.Error("New accepted Domains > 0 with Tracing")
	}
	if _, err := sharded(func(c *config.Config) { c.FlightRecorder = true }); err == nil {
		t.Error("New accepted Domains > 0 with FlightRecorder")
	}

	// Attached directly to a sharded simulator, both setters refuse.
	s, err := sharded(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.SetTracer(obs.New(obs.Options{Stats: s.Stats()})); err == nil {
		t.Error("SetTracer accepted a tracer on the sharded engine")
	}
	rec := metrics.NewRecorder(s.Stats(), 16)
	if err := s.SetFlightRecorder(rec, 5*sim.Microsecond); err == nil {
		t.Error("SetFlightRecorder accepted a recorder on the sharded engine")
	}
	// Nil detaches are no-ops on any engine.
	if err := s.SetTracer(nil); err != nil {
		t.Errorf("SetTracer(nil): %v", err)
	}
	if err := s.SetFlightRecorder(nil, 0); err != nil {
		t.Errorf("SetFlightRecorder(nil): %v", err)
	}
	// The rejected instrumentation must not have perturbed the run:
	// sharded results stay byte-identical to the serial engine.
	s.Run()
	got, err := s.Stats().Snapshot().StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	serial := func() []byte {
		cfg := config.Default()
		s2, err := New(&cfg, Options{
			Benchmark: "canneal", Seed: 7, Refs: 1_000,
			Scale: workload.TestScale(),
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s2.Run()
		b, err := s2.Stats().Snapshot().StableJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}()
	if string(got) != string(serial) {
		t.Error("sharded run with rejected instrumentation diverged from the serial engine")
	}
}
