package secmem

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/crypto"
)

func testMem(t *testing.T, d config.CounterDesign) *Memory {
	t.Helper()
	m, err := New(1<<20, d, []byte("secmem test key!"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func designs() []config.CounterDesign {
	return []config.CounterDesign{config.CtrMono, config.CtrSC64, config.CtrMorphable}
}

func TestRoundTripAllDesigns(t *testing.T) {
	for _, d := range designs() {
		m := testMem(t, d)
		plain := bytes.Repeat([]byte{0x5a}, crypto.BlockBytes)
		if _, err := m.Write(0x1000, plain); err != nil {
			t.Fatalf("%v: write: %v", d, err)
		}
		got, err := m.Read(0x1000)
		if err != nil {
			t.Fatalf("%v: read: %v", d, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%v: round trip mismatch", d)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	got, err := m.Read(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, crypto.BlockBytes)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestRewriteUsesFreshCounter(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	a := bytes.Repeat([]byte{1}, 64)
	b := bytes.Repeat([]byte{2}, 64)
	m.Write(0x40, a)
	c1 := m.Tree().CounterOf(1)
	m.Write(0x40, b)
	c2 := m.Tree().CounterOf(1)
	if c2 <= c1 {
		t.Fatalf("counter did not advance on rewrite: %d -> %d", c1, c2)
	}
	got, err := m.Read(0x40)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("rewrite lost data")
	}
}

func TestTamperDataDetected(t *testing.T) {
	for _, d := range designs() {
		m := testMem(t, d)
		m.Write(0x40, bytes.Repeat([]byte{7}, 64))
		m.TamperData(0x40)
		if _, err := m.Read(0x40); !errors.Is(err, ErrTampered) {
			t.Fatalf("%v: tamper not detected: %v", d, err)
		}
	}
}

func TestTamperMACDetected(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	m.Write(0x40, bytes.Repeat([]byte{7}, 64))
	m.TamperMAC(0x40)
	if _, err := m.Read(0x40); !errors.Is(err, ErrTampered) {
		t.Fatalf("MAC tamper not detected: %v", err)
	}
}

func TestReplayDetected(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	m.Write(0x40, bytes.Repeat([]byte{1}, 64))
	m.Write(0x40, bytes.Repeat([]byte{2}, 64))
	if err := m.ReplayOld(0x40); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(0x40); !errors.Is(err, ErrTampered) {
		t.Fatalf("replay not detected: %v", err)
	}
}

func TestCounterBlockTamperDetected(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	m.Write(0x40, bytes.Repeat([]byte{7}, 64))
	parent, _ := m.Space().ParentOf(1)
	m.Tree().TamperMAC(parent)
	if _, err := m.Read(0x40); !errors.Is(err, ErrTampered) {
		t.Fatalf("counter-block tamper not detected: %v", err)
	}
}

// TestEmbeddedSplitEquivalence: the EMCC read path (Sec. IV-D) must agree
// with the conventional read path on both good and tampered blocks.
func TestEmbeddedSplitEquivalence(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	f := func(content [64]byte, blkSeed uint16, tamper bool) bool {
		a := (uint64(blkSeed) % m.Space().DataBlocks()) << 6
		if _, err := m.Write(a, content[:]); err != nil {
			return false
		}
		if tamper {
			m.TamperData(a)
		}
		_, err1 := m.Read(a)
		_, err2 := m.ReadViaEmbedded(a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if tamper {
			// Heal for subsequent iterations.
			if _, err := m.Write(a, content[:]); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowReencryptionPreservesData: hammering one SC-64 counter past
// its 7-bit minor forces a rebase that must transparently re-encrypt every
// written sibling.
func TestOverflowReencryptionPreservesData(t *testing.T) {
	m := testMem(t, config.CtrSC64)
	// Write two blocks covered by the same counter block.
	a := bytes.Repeat([]byte{0xaa}, 64)
	b := bytes.Repeat([]byte{0xbb}, 64)
	m.Write(0x0, a)
	m.Write(0x40, b)
	sawOverflow := false
	for i := 0; i < 200; i++ {
		ovs, err := m.Write(0x0, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(ovs) > 0 {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("no overflow after 200 writes of a 7-bit minor")
	}
	got, err := m.Read(0x40)
	if err != nil {
		t.Fatalf("sibling unreadable after rebase: %v", err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("sibling data corrupted by overflow re-encryption")
	}
}

func TestAddressValidation(t *testing.T) {
	m := testMem(t, config.CtrMorphable)
	if _, err := m.Read(0x41); err == nil {
		t.Fatal("unaligned read accepted")
	}
	if _, err := m.Write(1<<21, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := m.Write(0x40, make([]byte, 63)); err == nil {
		t.Fatal("short plaintext accepted")
	}
	if err := m.TamperData(0x4000); err == nil {
		t.Fatal("tampering an unwritten block should report an error")
	}
}

func TestNonSecureDesignRejected(t *testing.T) {
	if _, err := New(1<<20, config.CtrNone, []byte("secmem test key!")); err == nil {
		t.Fatal("CtrNone accepted")
	}
}

// TestBadKeyLengthRejected: a key that is not 16 bytes is an error, not a
// panic, on both the counter and the counter-free path.
func TestBadKeyLengthRejected(t *testing.T) {
	for _, d := range []config.CounterDesign{config.CtrMono, config.CtrBipBip} {
		for _, n := range []int{15, 17} {
			_, err := New(1<<20, d, make([]byte, n))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("got %d bytes", n)) {
				t.Errorf("%v with a %d-byte key: err = %v, want one naming the length", d, n, err)
			}
		}
	}
}

func directDesigns() []config.CounterDesign {
	return []config.CounterDesign{config.CtrBipBip, config.CtrInSRAM}
}

func TestDirectCipherRoundTrip(t *testing.T) {
	for _, d := range directDesigns() {
		m := testMem(t, d)
		plain := bytes.Repeat([]byte{0x5a}, crypto.BlockBytes)
		if _, err := m.Write(0x1000, plain); err != nil {
			t.Fatalf("%v: write: %v", d, err)
		}
		got, err := m.Read(0x1000)
		if err != nil {
			t.Fatalf("%v: read: %v", d, err)
		}
		if !bytes.Equal(got, plain) {
			t.Fatalf("%v: round trip mismatch", d)
		}
		// Unwritten blocks still read as zeros.
		zero, err := m.Read(0x2000)
		if err != nil || !bytes.Equal(zero, make([]byte, crypto.BlockBytes)) {
			t.Fatalf("%v: unwritten block not zero (%v)", d, err)
		}
	}
}

// TestDirectCipherTweaksByAddress: the XEX tweak must separate equal
// plaintext across addresses and actually hide the plaintext.
func TestDirectCipherTweaksByAddress(t *testing.T) {
	m := testMem(t, config.CtrBipBip)
	plain := bytes.Repeat([]byte{0x77}, crypto.BlockBytes)
	m.Write(0x40, plain)
	m.Write(0x80, plain)
	a := m.data[1].ciphertext
	b := m.data[2].ciphertext
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("equal plaintext at distinct addresses produced equal ciphertext")
	}
	if bytes.Equal(a[:], plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	// Lanes within one block must also diverge (per-lane tweak).
	if bytes.Equal(a[0:16], a[16:32]) {
		t.Fatal("equal plaintext lanes within a block produced equal ciphertext lanes")
	}
}

// TestDirectCipherTamperGarbles pins the documented trade-off: counter-free
// designs are confidentiality-only, so tampering is NOT detected — the read
// succeeds but yields garbled plaintext.
func TestDirectCipherTamperGarbles(t *testing.T) {
	for _, d := range directDesigns() {
		m := testMem(t, d)
		plain := bytes.Repeat([]byte{7}, crypto.BlockBytes)
		m.Write(0x40, plain)
		if err := m.TamperData(0x40); err != nil {
			t.Fatal(err)
		}
		got, err := m.Read(0x40)
		if err != nil {
			t.Fatalf("%v: tampered read errored (%v); direct designs cannot detect", d, err)
		}
		if bytes.Equal(got, plain) {
			t.Fatalf("%v: tampered ciphertext decrypted to the original plaintext", d)
		}
	}
}

// TestDirectCipherHasNoCounterMachinery: the counter-only operations must
// refuse rather than touch nil organisation/tree state.
func TestDirectCipherHasNoCounterMachinery(t *testing.T) {
	m := testMem(t, config.CtrInSRAM)
	m.Write(0x40, bytes.Repeat([]byte{1}, crypto.BlockBytes))
	if err := m.TamperMAC(0x40); err == nil {
		t.Fatal("TamperMAC succeeded without a MAC")
	}
	if err := m.ReplayOld(0x40); err == nil {
		t.Fatal("ReplayOld succeeded without counters")
	}
	if _, err := m.ReadViaEmbedded(0x40); err == nil {
		t.Fatal("embedded split read succeeded without counter-mode crypto")
	}
	if m.Tree() != nil {
		t.Fatal("direct-cipher memory built an integrity tree")
	}
}
