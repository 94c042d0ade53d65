package check

import (
	"bytes"
	"fmt"

	"repro/internal/config"
	"repro/internal/trace"
)

// shardGrid is the engine-partitioning grid every differential system is
// checked under. The first three rows shard the LLC slice groups (plus
// the DRAM channels behind them): single-channel one-domain, channels
// sharing a domain, one domain per channel. The cores rows additionally
// re-home every core+L2 tile into its own domain (ShardCores) — the
// widest topology cut, where every seam of topo.go carries traffic.
var shardGrid = []struct {
	channels, domains int
	cores             bool
}{
	{1, 1, false},
	{4, 2, false},
	{4, 4, false},
	{4, 4, true},
	{4, 8, true},
}

// shardParityUnits builds the shard-parity pillar: for every system of the
// differential grid and every partitioning in shardGrid, replay the shared
// trace on the serial engine and on the domain-sharded engine and require
// byte-identical stats snapshots. Some cells additionally re-run the
// sharded engine at other worker counts — the schedule must be a pure
// function of the partitioning, never of the host parallelism. The serial
// references come from the memo: one per system and channel count.
func shardParityUnits(m *simMemo) []func() []Result {
	var units []func() []Result
	for _, system := range diffSystems {
		for _, g := range shardGrid {
			system, g := system, g
			units = append(units, func() []Result {
				cfg, err := systemConfig(system)
				if err != nil {
					return []Result{failf(PillarShardParity, system, "%v", err)}
				}
				cfg.Channels = g.channels
				sharded := cfg
				sharded.Domains = g.domains
				sharded.ShardCores = g.cores
				name := fmt.Sprintf("%s/%dch-%ddom", system, g.channels, g.domains)
				if g.cores {
					name += "-cores"
				}
				// Two cells double as worker-count probes, re-running the
				// sharded engine at 1/2/4 workers: 1 serializes every
				// barrier round, 2 and 4 split the domains differently, and
				// none of them may change a byte. The widest cut probes on
				// every system; morphable keeps its historical slice-cut
				// probe so both cut shapes are covered.
				var workers []int
				if g.cores && g.domains == 8 {
					workers = []int{1, 2, 4}
				} else if system == "morphable" && !g.cores && g.channels == 4 && g.domains == 4 {
					workers = []int{1}
				}
				return compareShardRun(name, &cfg, &sharded, m, workers...)
			})
		}
	}
	return units
}

// ShardParity runs the shard-parity pillar standalone (cmd/check and tests;
// Run fans the same units out with the other pillars).
func ShardParity(opt Options) []Result {
	m := recordMemo(opt.withDefaults())
	if m.err != nil {
		return []Result{failf(PillarShardParity, "record-trace", "%v", m.err)}
	}
	var out []Result
	for _, unit := range shardParityUnits(m) {
		out = append(out, unit()...)
	}
	return out
}

// CompareShardRun replays tr through tsim under cfgSerial (which must keep
// Domains = 0) and under cfgSharded and requires the two stats snapshots to
// agree byte for byte. The sharded run is additionally repeated at each
// positive altWorkers count and held to the same standard. The configs
// normally differ only in the partition; tests pass genuinely different
// ones to prove the comparison detects divergence.
func CompareShardRun(name string, cfgSerial, cfgSharded *config.Config, tr *trace.Trace, opt Options, altWorkers ...int) []Result {
	return compareShardRun(name, cfgSerial, cfgSharded, newSimMemo(tr, opt), altWorkers...)
}

// compareShardRun is CompareShardRun with the serial reference served by m.
// A worker probe whose effective worker count — read from the built
// simulator — equals that of a sharded run already made reuses that run's
// snapshot: the two would execute the same schedule on the same number of
// goroutines.
func compareShardRun(name string, cfgSerial, cfgSharded *config.Config, m *simMemo, altWorkers ...int) []Result {
	serial, err := m.replay(*cfgSerial)
	if err != nil {
		return []Result{failf(PillarShardParity, name, "serial run: %v", err)}
	}
	byWorkers := make(map[int][]byte)
	sharded, err := shardSnapshot(cfgSharded, m, 0, byWorkers)
	if err != nil {
		return []Result{failf(PillarShardParity, name, "sharded run: %v", err)}
	}
	if !bytes.Equal(serial.snap, sharded) {
		return []Result{failf(PillarShardParity, name,
			"sharded snapshot diverged from serial (%d vs %d bytes)", len(sharded), len(serial.snap))}
	}
	out := []Result{passf(PillarShardParity, name,
		"serial and sharded snapshots byte-identical (%d bytes)", len(serial.snap))}
	for _, w := range altWorkers {
		if w <= 0 {
			continue
		}
		alt, err := shardSnapshot(cfgSharded, m, w, byWorkers)
		if err != nil {
			return append(out, failf(PillarShardParity, fmt.Sprintf("%s/workers-%d", name, w), "run: %v", err))
		}
		if !bytes.Equal(serial.snap, alt) {
			return append(out, failf(PillarShardParity, fmt.Sprintf("%s/workers-%d", name, w),
				"worker count %d changed the sharded snapshot", w))
		}
		out = append(out, passf(PillarShardParity, fmt.Sprintf("%s/workers-%d", name, w),
			"byte-identical again at %d worker(s)", w))
	}
	return out
}

// shardSnapshot replays m's trace through one tsim instance under cfg at
// the given worker count (0 = the engine's default) and returns its stable
// stats snapshot. byWorkers holds the snapshots of cfg's runs so far by
// effective worker count; a run at a count already there is not repeated.
func shardSnapshot(cfg *config.Config, m *simMemo, workers int, byWorkers map[int][]byte) ([]byte, error) {
	s, err := newReplaySim(cfg, m.tr, m.refs, nil)
	if err != nil {
		return nil, err
	}
	if workers > 0 {
		s.SetShardWorkers(workers)
	}
	n := s.ShardWorkers()
	if snap, ok := byWorkers[n]; ok {
		m.reusedProbes.Add(1)
		return snap, nil
	}
	s.Run()
	snap, err := s.Stats().Snapshot().StableJSON()
	if err != nil {
		return nil, err
	}
	byWorkers[n] = snap
	return snap, nil
}
