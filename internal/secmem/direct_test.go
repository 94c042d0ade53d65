package secmem

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/crypto"
)

// TestDirectCipherKnownAnswer pins the XEX ciphertext the counter-free
// designs (BipBip, In-SRAM) store for one fixed key, address and block.
// The value was computed with a FIPS-197 AES-128, so a change to the
// cipher, the tweak-key derivation or the tweak packing fails here.
func TestDirectCipherKnownAnswer(t *testing.T) {
	const want = "26659f310e2e71949597f5b7c5d49216c66aa4552f81e82b0fb97d6f544df37d" +
		"44ce86883f773d491279d3708e2bd02e71f52b760e52ea047f4ef93bb9ba21b1"
	plain := make([]byte, crypto.BlockBytes)
	for i := range plain {
		plain[i] = byte(7*i + 3)
	}
	for _, d := range directDesigns() {
		m, err := New(1<<20, d, []byte("kat master key!!"))
		if err != nil {
			t.Fatal(err)
		}
		const byteAddr = 0x12340
		if _, err := m.Write(byteAddr, plain); err != nil {
			t.Fatal(err)
		}
		ct := m.data[byteAddr/crypto.BlockBytes].ciphertext
		if got := hex.EncodeToString(ct[:]); got != want {
			t.Errorf("%v: ciphertext = %s, want %s", d, got, want)
		}
		got, err := m.Read(byteAddr)
		if err != nil || !bytes.Equal(got, plain) {
			t.Errorf("%v: read back %x (%v), want the plaintext", d, got, err)
		}
	}
}
