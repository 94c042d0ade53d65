package config

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	checks := []struct {
		name string
		ok   bool
	}{
		{"4 cores", c.Cores == 4},
		{"3.2 GHz", c.CoreClockGHz == 3.2},
		{"192-entry ROB", c.ROBEntries == 192},
		{"4-wide", c.IssueWidth == 4},
		{"1 MB L2", c.L2Bytes == 1<<20},
		{"8 MB L3", c.L3Bytes == 8<<20},
		{"128 KB counter cache", c.CtrCacheBytes == 128<<10},
		{"32-way counter cache", c.CtrCacheWays == 32},
		{"3 ns counter cache", c.CtrCacheLatency == sim.NS(3)},
		{"14 ns AES", c.AESLatency == sim.NS(14)},
		{"morphable default", c.Counter == CtrMorphable},
		{"counters in LLC", c.CountersInLLC},
		{"1 channel", c.Channels == 1},
		{"8 ranks", c.Ranks == 8},
		{"13.75 ns tCL", c.TCL == sim.NS(13.75)},
		{"350 ns tRFC", c.TRFC == sim.NS(350)},
		{"256-entry queues", c.ReadQueueCap == 256 && c.WriteQueueCap == 256},
		{"<=2 overflows", c.OverflowMaxLive == 2},
		{"<=8 overflow slots", c.OverflowSlots == 8},
		{"32 KB EMCC counter cap", c.EMCCL2CounterBytes == 32<<10},
		{"half the AES units move", c.EMCCAESFraction == 0.5},
		{"3 ns BipBip cipher", c.BipBipLatency == sim.NS(3)},
		{"64 in-SRAM AES banks", c.InSRAMBanks == 64},
	}
	for _, chk := range checks {
		if !chk.ok {
			t.Errorf("Table I mismatch: %s", chk.name)
		}
	}
}

func TestCoreCycle(t *testing.T) {
	c := Default()
	// 3.2 GHz -> 312.5 ps, rounded to 313 ps.
	if got := c.CoreCycle(); got < 312 || got > 313 {
		t.Fatalf("core cycle = %d ps", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.L2Bytes = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.EMCC = true; c.CountersInLLC = false },
		func(c *Config) { c.EMCC = true; c.Counter = CtrNone },
		func(c *Config) { c.EMCCAESFraction = 1.5 },
		// Counter-free designs have no counter blocks for the LLC to cache.
		func(c *Config) { c.Counter = CtrBipBip },
		func(c *Config) { c.Counter = CtrInSRAM },
		// EMCC offloads counter cryptography; meaningless without counters.
		func(c *Config) { c.Counter = CtrBipBip; c.CountersInLLC = false; c.EMCC = true },
		func(c *Config) { c.Counter = CtrInSRAM; c.CountersInLLC = false; c.EMCC = true },
		func(c *Config) { c.Counter = CtrInSRAM; c.CountersInLLC = false; c.InSRAMBanks = 0 },
		func(c *Config) { c.Counter = CtrBipBip; c.CountersInLLC = false; c.BipBipLatency = -sim.NS(1) },
		// Every cache must be a whole number of sets of 64 B blocks:
		// positive ways, and a size that is a positive multiple of 64 B x
		// ways (1 KB over 32 ways is 16 blocks, half a set).
		func(c *Config) { c.CtrCacheBytes = 1 << 10 },
		func(c *Config) { c.CtrCacheBytes = 0 },
		func(c *Config) { c.CtrCacheWays = 0 },
		func(c *Config) { c.L1Bytes = 64<<10 + 64 },
		func(c *Config) { c.L1Ways = -1 },
		func(c *Config) { c.L2Bytes = 256 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.L3Bytes = 8<<20 + 512 },
		func(c *Config) { c.L3Ways = -16 },
		func(c *Config) { c.L3Ways = 0 },
	}
	for i, mut := range cases {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestValidateCapsWays: a set holds at most cache.MaxWays ways. Each cache
// past the cap, with a size that is still a whole number of sets, is an
// error naming its ways field; every cache at the cap is accepted.
func TestValidateCapsWays(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config, int)
	}{
		{"L1Ways", func(c *Config, n int) { c.L1Ways = n }},
		{"L2Ways", func(c *Config, n int) { c.L2Ways = n }},
		{"L3Ways", func(c *Config, n int) { c.L3Ways = n }},
		{"CtrCacheWays", func(c *Config, n int) { c.CtrCacheWays = n }},
	} {
		c := Default()
		tc.set(&c, 2*cache.MaxWays) // 64 KB and up split into 2+ sets of 512 ways
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) || !strings.Contains(err.Error(), fmt.Sprint(cache.MaxWays)) {
			t.Errorf("%s = %d: Validate() = %v, want an error naming %s and the %d-way cap", tc.field, 2*cache.MaxWays, err, tc.field, cache.MaxWays)
		}
		c = Default()
		tc.set(&c, cache.MaxWays)
		if err := c.Validate(); err != nil {
			t.Errorf("%s = %d: %v", tc.field, cache.MaxWays, err)
		}
	}
}

func TestCoverage(t *testing.T) {
	if CtrMono.Coverage() != 8 || CtrSC64.Coverage() != 64 || CtrMorphable.Coverage() != 128 {
		t.Fatal("coverage values drifted from the paper")
	}
	if CtrNone.Coverage() != 0 {
		t.Fatal("non-secure coverage should be 0")
	}
	// Counter-free designs cover no data blocks with counter blocks.
	if CtrBipBip.Coverage() != 0 || CtrInSRAM.Coverage() != 0 {
		t.Fatal("counter-free designs must report zero coverage")
	}
}

func TestCounterDesignStrings(t *testing.T) {
	want := map[CounterDesign]string{
		CtrNone:      "non-secure",
		CtrMono:      "mono",
		CtrSC64:      "sc64",
		CtrMorphable: "morphable",
		CtrBipBip:    "bipbip",
		CtrInSRAM:    "insram",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
}

func TestHasCounters(t *testing.T) {
	want := map[CounterDesign]bool{
		CtrNone:      false,
		CtrMono:      true,
		CtrSC64:      true,
		CtrMorphable: true,
		CtrBipBip:    false,
		CtrInSRAM:    false,
	}
	for d, hc := range want {
		if d.HasCounters() != hc {
			t.Errorf("%v.HasCounters() = %v, want %v", d, d.HasCounters(), hc)
		}
	}
	// HasCounters must agree with Coverage: counters exist iff they cover
	// data blocks.
	for d := CtrNone; d <= CtrInSRAM; d++ {
		if d.HasCounters() != (d.Coverage() > 0) {
			t.Errorf("%v: HasCounters/Coverage disagree", d)
		}
	}
}

func TestApplySystemNewModes(t *testing.T) {
	for _, name := range []string{"bipbip", "insram", "bipbip+nollc", "insram+nollc"} {
		c := Default()
		if err := ApplySystem(&c, name); err != nil {
			t.Fatalf("ApplySystem(%q): %v", name, err)
		}
		if c.CountersInLLC {
			t.Errorf("%q left CountersInLLC on for a counter-free design", name)
		}
		if c.EMCC {
			t.Errorf("%q left EMCC on", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("ApplySystem(%q) produced invalid config: %v", name, err)
		}
		base := strings.TrimSuffix(name, "+nollc")
		if c.Counter.String() != base || c.SystemName() != base {
			t.Errorf("%q round-trips to %q / %q", name, c.Counter, c.SystemName())
		}
	}
}

func TestInSRAMAESLatencyGeometry(t *testing.T) {
	// One 64 B block is 64/16 = 4 AES lanes; B banks process them
	// in ceil(4/B) waves of 10 rounds x 2 ns.
	want := map[int]sim.Time{
		1:  sim.NS(80), // 4 waves
		2:  sim.NS(40), // 2 waves
		4:  sim.NS(20), // 1 wave
		8:  sim.NS(20),
		64: sim.NS(20),
	}
	c := Default()
	c.Counter = CtrInSRAM
	c.CountersInLLC = false
	for banks, lat := range want {
		c.InSRAMBanks = banks
		if got := InSRAMAESLatency(&c); got != lat {
			t.Errorf("banks=%d: latency %v, want %v", banks, got, lat)
		}
	}
	// Monotone non-increasing in bank count, and bandwidth strictly
	// increasing with provisioned arrays.
	prev := sim.Time(1 << 62)
	prevBW := 0.0
	for _, banks := range []int{1, 2, 3, 4, 8, 16, 64, 256} {
		c.InSRAMBanks = banks
		lat := InSRAMAESLatency(&c)
		if lat > prev {
			t.Errorf("latency increased at banks=%d: %v > %v", banks, lat, prev)
		}
		prev = lat
		bw := InSRAMAESOpsPerSec(&c)
		if bw <= prevBW {
			t.Errorf("bandwidth not increasing at banks=%d: %g <= %g", banks, bw, prevBW)
		}
		prevBW = bw
	}
	// Default geometry: 64 banks at 20 ns/op wave -> 3.2e9 ops/s.
	c.InSRAMBanks = Default().InSRAMBanks
	if bw := InSRAMAESOpsPerSec(&c); bw != 3.2e9 {
		t.Errorf("default in-SRAM bandwidth = %g ops/s, want 3.2e9", bw)
	}
}

// FuzzApplySystem: any system name either parses into a Validate-clean
// configuration whose SystemName round-trips, or is rejected — never a
// panic, never an invalid config.
func FuzzApplySystem(f *testing.F) {
	for _, seed := range []string{
		"non-secure", "nonsecure", "none", "mono", "sc64", "morphable",
		"emcc", "bipbip", "insram",
		"mono+nollc", "bipbip+nollc", "insram+nollc", "emcc+nollc",
		"", "bogus", "+nollc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		c := Default()
		if err := ApplySystem(&c, name); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ApplySystem(%q) accepted but invalid: %v", name, err)
		}
		got := c.SystemName()
		base := strings.TrimSuffix(name, "+nollc")
		switch base {
		case "nonsecure", "none":
			base = "non-secure"
		case "emcc":
			base = "emcc+morphable"
		}
		if got != base {
			t.Fatalf("ApplySystem(%q) -> SystemName %q, want %q", name, got, base)
		}
	})
}

func TestSystemNames(t *testing.T) {
	c := Default()
	if c.SystemName() != "morphable" {
		t.Fatalf("name = %q", c.SystemName())
	}
	c.EMCC = true
	if !strings.HasPrefix(c.SystemName(), "emcc") {
		t.Fatalf("name = %q", c.SystemName())
	}
	c = Default()
	c.Counter = CtrNone
	if c.SystemName() != "non-secure" {
		t.Fatalf("name = %q", c.SystemName())
	}
}
