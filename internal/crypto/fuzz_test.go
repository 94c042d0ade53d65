package crypto

import (
	"bytes"
	"testing"
)

// FuzzEngineRoundTrip: for arbitrary plaintext/address/counter, encryption
// must invert and the MAC must verify — and stop verifying under any
// single-byte corruption the fuzzer finds.
func FuzzEngineRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), uint64(0x1000), uint64(7), uint8(0))
	f.Add(bytes.Repeat([]byte{0}, 64), uint64(0), uint64(0), uint8(63))
	e := NewEngine([]byte("fuzzing master k"))
	f.Fuzz(func(t *testing.T, plain []byte, a uint64, counter uint64, corrupt uint8) {
		if len(plain) < BlockBytes {
			return
		}
		plain = plain[:BlockBytes]
		var ct, pt [BlockBytes]byte
		e.Encrypt(ct[:], plain, a, counter)
		e.Decrypt(pt[:], ct[:], a, counter)
		if !bytes.Equal(pt[:], plain) {
			t.Fatal("round trip failed")
		}
		mac := e.MAC(ct[:], a, counter)
		if !e.Verify(ct[:], a, counter, mac) {
			t.Fatal("fresh MAC rejected")
		}
		mut := ct
		mut[int(corrupt)%BlockBytes] ^= 0x80
		if e.Verify(mut[:], a, counter, mac) {
			t.Fatalf("corruption at byte %d accepted", int(corrupt)%BlockBytes)
		}
	})
}
