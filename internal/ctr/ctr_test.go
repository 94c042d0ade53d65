package ctr

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func orgs() map[string]Organisation {
	return map[string]Organisation{
		"mono":      New(config.CtrMono),
		"sc64":      New(config.CtrSC64),
		"morphable": New(config.CtrMorphable),
	}
}

func TestCoverageMatchesPaper(t *testing.T) {
	want := map[string]int{"mono": 8, "sc64": 64, "morphable": 128}
	for name, o := range orgs() {
		if o.Coverage() != want[name] {
			t.Errorf("%s coverage = %d, want %d", name, o.Coverage(), want[name])
		}
	}
}

func TestFreshCountersAreZero(t *testing.T) {
	for name, o := range orgs() {
		if o.Counter(12, 3) != 0 {
			t.Errorf("%s fresh counter not zero", name)
		}
	}
}

func TestIncrementAdvancesOnlyTarget(t *testing.T) {
	for name, o := range orgs() {
		o.Increment(5, 2, 0)
		if o.Counter(5, 2) == 0 {
			t.Errorf("%s counter did not advance", name)
		}
		if o.Counter(5, 3) != 0 {
			t.Errorf("%s neighbouring counter advanced", name)
		}
		if o.Counter(6, 2) != 0 {
			t.Errorf("%s other block's counter advanced", name)
		}
	}
}

// TestCounterValuesNeverRepeat is the central security invariant: across
// any sequence of increments (including overflow rebases), the counter
// values a single block observes must be strictly increasing.
func TestCounterValuesNeverRepeat(t *testing.T) {
	for name, o := range orgs() {
		o := o
		last := map[int]uint64{}
		// Hammer a few offsets unevenly to force rebases in the split
		// designs.
		for i := 0; i < 5000; i++ {
			off := i % 3
			if i%7 == 0 {
				off = 1
			}
			o.Increment(9, off, 0)
			v := o.Counter(9, off)
			if v <= last[off] {
				t.Fatalf("%s: counter for offset %d went %d -> %d", name, off, last[off], v)
			}
			last[off] = v
		}
	}
}

func TestSC64OverflowAt128thWrite(t *testing.T) {
	o := New(config.CtrSC64)
	for i := 0; i < 127; i++ {
		if ov := o.Increment(1, 0, 0); ov.Happened {
			t.Fatalf("overflow after only %d increments", i+1)
		}
	}
	ov := o.Increment(1, 0, 0)
	if !ov.Happened {
		t.Fatal("128th increment of a 7-bit minor must overflow")
	}
	if ov.ReencryptBlocks != 64 {
		t.Fatalf("sc64 overflow re-encrypts %d blocks, want 64", ov.ReencryptBlocks)
	}
	if ov.Level != 0 {
		t.Fatalf("overflow level = %d, want 0", ov.Level)
	}
	// After the rebase the counter is still larger than before.
	if o.Counter(1, 0) <= 127 {
		t.Fatalf("post-rebase counter %d not above pre-rebase values", o.Counter(1, 0))
	}
}

func TestMorphableUniformSmallCountersNeverOverflow(t *testing.T) {
	o := New(config.CtrMorphable)
	// All 128 minors at up to 7 (3 bits) fit the uniform format.
	for off := 0; off < 128; off++ {
		for i := 0; i < 7; i++ {
			if ov := o.Increment(2, off, 0); ov.Happened {
				t.Fatalf("uniform 3-bit population overflowed at off=%d i=%d", off, i)
			}
		}
	}
}

func TestMorphableZCCHoldsFewLargeCounters(t *testing.T) {
	o := New(config.CtrMorphable)
	// One hot counter can grow far beyond 3 bits: ZCC formats hold it.
	for i := 0; i < 4000; i++ {
		if ov := o.Increment(3, 5, 0); ov.Happened {
			t.Fatalf("single hot counter overflowed at %d", i)
		}
	}
}

func TestMorphableOverflowsWhenUnrepresentable(t *testing.T) {
	o := New(config.CtrMorphable)
	// Drive many minors above the uniform width until no ZCC format
	// fits: 64 non-zero 4-bit minors exceed nz*w <= 256 at w=4.
	overflowed := false
	for off := 0; off < 128 && !overflowed; off++ {
		for i := 0; i < 9; i++ {
			if ov := o.Increment(4, off, 0); ov.Happened {
				overflowed = true
				if ov.ReencryptBlocks != 128 {
					t.Fatalf("morphable overflow re-encrypts %d, want 128", ov.ReencryptBlocks)
				}
				break
			}
		}
	}
	if !overflowed {
		t.Fatal("wide minor population never overflowed")
	}
}

func TestSerializeChangesWithState(t *testing.T) {
	for name, o := range orgs() {
		ser, ok := o.(Serializer)
		if !ok {
			t.Fatalf("%s does not serialize", name)
		}
		var before, after [SerializedBytes]byte
		ser.Serialize(7, &before)
		o.Increment(7, 1, 0)
		ser.Serialize(7, &after)
		if before == after {
			t.Errorf("%s serialization unchanged after increment", name)
		}
		// Untouched blocks serialize to zero.
		var fresh [SerializedBytes]byte
		ser.Serialize(1234, &before)
		if before != fresh {
			t.Errorf("%s fresh block serializes non-zero", name)
		}
	}
}

func TestDecodeLatencyOnlyForMorphable(t *testing.T) {
	if New(config.CtrMono).DecodeLatency() != 0 {
		t.Error("mono should decode instantly")
	}
	if New(config.CtrMorphable).DecodeLatency() == 0 {
		t.Error("morphable decode must cost time (Sec. V: 3 ns)")
	}
}

func TestRepresentableProperty(t *testing.T) {
	// representable must be monotone: zeroing any minor never makes a
	// representable block unrepresentable.
	f := func(seed [16]uint8, idx uint8) bool {
		var m [128]uint32
		for i, v := range seed {
			m[i*8] = uint32(v)
		}
		if !representable(&m) {
			return true // premise not met
		}
		m[int(idx)%128] = 0
		return representable(&m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownDesignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CtrNone did not panic")
		}
	}()
	New(config.CtrNone)
}

// TestMonoMatchesReference writes to a few thousand counter blocks in a
// scattered order and checks every counter and every block image, written
// or not, against a map of plain arrays.
func TestMonoMatchesReference(t *testing.T) {
	m := newMono()
	ref := map[uint64]*[8]uint64{}
	r := uint64(1)
	for i := 0; i < 20_000; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		blk, off := r>>52, int(r>>40%8) // 4096 possible blocks
		m.Increment(blk, off, 0)
		if ref[blk] == nil {
			ref[blk] = new([8]uint64)
		}
		ref[blk][off]++
	}
	for blk := uint64(0); blk < 1<<12+8; blk++ {
		var want [8]uint64
		if b := ref[blk]; b != nil {
			want = *b
		}
		img := [SerializedBytes]byte{0: 0xff, 63: 0xff}
		m.Serialize(blk, &img)
		for off := range want {
			if got := m.Counter(blk, off); got != want[off] {
				t.Fatalf("block %d offset %d: counter %d, want %d", blk, off, got, want[off])
			}
			if got := binary.LittleEndian.Uint64(img[8*off:]); got != want[off] {
				t.Fatalf("block %d offset %d: image holds %d, want %d", blk, off, got, want[off])
			}
		}
	}
}
