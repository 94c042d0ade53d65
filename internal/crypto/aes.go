// Package crypto implements the functional cryptography of Figure 1:
// AES-128 (the standard library's crypto/aes), counter-mode one-time-pad
// generation, and the Carter–Wegman style MAC (AES result XOR a GF(2^64)
// dot product).
//
// This layer is *functional*: it really encrypts, decrypts and verifies the
// simulated memory image, so property tests can prove decrypt(encrypt(x))=x
// and that tampering is detected. Timing (14 ns latency, unit bandwidth) is
// modelled separately in internal/mc.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
)

// AES is AES-128 over 16-byte blocks. Every call copies its block through
// buf: a caller's own buffer handed to the cipher.Block interface would
// escape to the heap, so the copy keeps each block allocation-free. An AES
// is not safe for concurrent use.
type AES struct {
	b   cipher.Block
	buf [16]byte
}

// NewAES builds the cipher for a 16-byte key. It panics on any other key
// length, including the 24 and 32 bytes aes.NewCipher would take as
// AES-192/256: key size is a compile-time property of every caller in this
// repository.
func NewAES(key []byte) *AES {
	if len(key) != 16 {
		panic("crypto: AES-128 requires a 16-byte key")
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	return &AES{b: b}
}

// Encrypt computes dst = AES-128(src). dst and src must be 16 bytes and may
// alias.
func (a *AES) Encrypt(dst, src []byte) {
	copy(a.buf[:], src)
	a.b.Encrypt(a.buf[:], a.buf[:])
	copy(dst, a.buf[:])
}

// Decrypt computes dst = AES-128^-1(src). dst and src must be 16 bytes and
// may alias. Counter mode never needs it; the XEX cipher of the counter-free
// designs (internal/secmem) does.
func (a *AES) Decrypt(dst, src []byte) {
	copy(a.buf[:], src)
	a.b.Decrypt(a.buf[:], a.buf[:])
	copy(dst, a.buf[:])
}
