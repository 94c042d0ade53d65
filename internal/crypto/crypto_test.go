package crypto

import (
	"bytes"
	"encoding/hex"
	"math/bits"
	"testing"
	"testing/quick"
)

// TestAESFIPS197Vector checks the appendix-B example of FIPS-197.
func TestAESFIPS197Vector(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	plain, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	want, _ := hex.DecodeString("3925841d02dc09fbdc118597196a0b32")
	a := NewAES(key)
	got := make([]byte, 16)
	a.Encrypt(got, plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("AES encrypt = %x, want %x", got, want)
	}
	back := make([]byte, 16)
	a.Decrypt(back, got)
	if !bytes.Equal(back, plain) {
		t.Fatalf("AES decrypt = %x, want %x", back, plain)
	}
}

// TestAESNISTVector checks the AESAVS KAT (key all zero).
func TestAESNISTVector(t *testing.T) {
	key := make([]byte, 16)
	plain, _ := hex.DecodeString("f34481ec3cc627bacd5dc3fb08f273e6")
	want, _ := hex.DecodeString("0336763e966d92595a567cc9ce537f5e")
	got := make([]byte, 16)
	NewAES(key).Encrypt(got, plain)
	if !bytes.Equal(got, want) {
		t.Fatalf("AES encrypt = %x, want %x", got, want)
	}
}

func TestAESRoundTripProperty(t *testing.T) {
	a := NewAES([]byte("0123456789abcdef"))
	f := func(block [16]byte) bool {
		var ct, pt [16]byte
		a.Encrypt(ct[:], block[:])
		a.Decrypt(pt[:], ct[:])
		return pt == block
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAESInPlace(t *testing.T) {
	a := NewAES([]byte("0123456789abcdef"))
	buf := []byte("16 bytes of data")
	orig := append([]byte(nil), buf...)
	a.Encrypt(buf, buf)
	if bytes.Equal(buf, orig) {
		t.Fatal("in-place encrypt did not change buffer")
	}
	a.Decrypt(buf, buf)
	if !bytes.Equal(buf, orig) {
		t.Fatal("in-place round trip failed")
	}
}

// TestAESWrongKeySizePanics: NewAES takes 16-byte keys only, so the 24-
// and 32-byte keys crypto/aes would run as AES-192/256 panic too.
func TestAESWrongKeySizePanics(t *testing.T) {
	for _, n := range []int{5, 24, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-byte key did not panic", n)
				}
			}()
			NewAES(make([]byte, n))
		}()
	}
}

func TestGF64MulMatchesReference(t *testing.T) {
	f := func(a, b uint64) bool { return GF64Mul(a, b) == gf64MulSlow(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGF64FieldAxioms(t *testing.T) {
	comm := func(a, b uint64) bool { return GF64Mul(a, b) == GF64Mul(b, a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Fatalf("commutativity: %v", err)
	}
	distrib := func(a, b, c uint64) bool {
		return GF64Mul(a, b^c) == GF64Mul(a, b)^GF64Mul(a, c)
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatalf("distributivity: %v", err)
	}
	assoc := func(a, b, c uint64) bool {
		return GF64Mul(GF64Mul(a, b), c) == GF64Mul(a, GF64Mul(b, c))
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatalf("associativity: %v", err)
	}
}

func TestGF64Identity(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 0xdeadbeef, ^uint64(0)} {
		if GF64Mul(v, 1) != v {
			t.Fatalf("v*1 != v for %#x", v)
		}
		if GF64Mul(v, 0) != 0 {
			t.Fatalf("v*0 != 0 for %#x", v)
		}
	}
}

func TestDotProductLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	GF64DotProduct([]uint64{1}, []uint64{1, 2})
}

func TestEngineEncryptDecryptProperty(t *testing.T) {
	e := NewEngine([]byte("a 16-byte master"))
	f := func(block [BlockBytes]byte, addrSeed uint32, counter uint32) bool {
		addr := uint64(addrSeed) << 6
		var ct, pt [BlockBytes]byte
		e.Encrypt(ct[:], block[:], addr, uint64(counter))
		e.Decrypt(pt[:], ct[:], addr, uint64(counter))
		return pt == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOTPDependsOnAddressAndCounter(t *testing.T) {
	e := NewEngine([]byte("a 16-byte master"))
	var p1, p2, p3 [BlockBytes]byte
	e.OTP(p1[:], 0x1000, 7)
	e.OTP(p2[:], 0x1040, 7) // different address
	e.OTP(p3[:], 0x1000, 8) // different counter
	if p1 == p2 {
		t.Fatal("OTP identical across addresses")
	}
	if p1 == p3 {
		t.Fatal("OTP identical across counters — pad reuse!")
	}
}

func TestMACDetectsCorruption(t *testing.T) {
	e := NewEngine([]byte("a 16-byte master"))
	block := bytes.Repeat([]byte{0xab}, BlockBytes)
	const addr, counter = 0x2000, 42
	mac := e.MAC(block, addr, counter)
	if !e.Verify(block, addr, counter, mac) {
		t.Fatal("fresh MAC does not verify")
	}
	// Any single-bit flip must invalidate the MAC.
	for _, bit := range []int{0, 7, 100, 511} {
		mut := append([]byte(nil), block...)
		mut[bit/8] ^= 1 << uint(bit%8)
		if e.Verify(mut, addr, counter, mac) {
			t.Fatalf("bit flip %d not detected", bit)
		}
	}
	if e.Verify(block, addr, counter+1, mac) {
		t.Fatal("wrong counter accepted — replay possible")
	}
	if e.Verify(block, addr+64, counter, mac) {
		t.Fatal("wrong address accepted — relocation possible")
	}
}

// TestEmbeddedCheckEquivalence: the EMCC split verification (Sec. IV-D)
// must accept exactly what full MAC verification accepts.
func TestEmbeddedCheckEquivalence(t *testing.T) {
	e := NewEngine([]byte("a 16-byte master"))
	f := func(block [BlockBytes]byte, addrSeed uint16, counter uint16, flip bool) bool {
		addr := uint64(addrSeed) << 6
		mac := e.MAC(block[:], addr, uint64(counter))
		if flip {
			mac ^= 1
		}
		full := e.Verify(block[:], addr, uint64(counter), mac)
		embedded := e.VerifyEmbedded(e.EmbeddedCheck(block[:], mac), addr, uint64(counter))
		return full == embedded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMACIs56Bits(t *testing.T) {
	e := NewEngine([]byte("a 16-byte master"))
	block := make([]byte, BlockBytes)
	for i := uint64(0); i < 32; i++ {
		if m := e.MAC(block, i<<6, i); m>>MACBits != 0 {
			t.Fatalf("MAC %#x exceeds %d bits", m, MACBits)
		}
	}
}

func TestOnesCountHelper(t *testing.T) {
	if onesCount(0b1011) != 3 {
		t.Fatal("onesCount broken")
	}
}

// gf64MulSlow is a reference bit-by-bit shift-and-reduce multiply that
// cross-checks GF64Mul.
func gf64MulSlow(a, b uint64) uint64 {
	var p uint64
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&(1<<63) != 0
		a <<= 1
		if carry {
			a ^= gf64ReductionTail
		}
		b >>= 1
	}
	return p
}

// onesCount is referenced by property tests checking linearity.
func onesCount(x uint64) int { return bits.OnesCount64(x) }
