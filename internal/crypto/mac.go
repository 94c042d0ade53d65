package crypto

import "encoding/binary"

// BlockBytes is the memory block granularity everything operates on.
const BlockBytes = 64

// WordsPerBlock is the number of 8-byte words in a block (the MAC dot
// product operates word-wise, Fig 1b).
const WordsPerBlock = BlockBytes / 8

// OTPsPerBlock is the number of 16-byte AES one-time pads needed to
// encrypt/decrypt one 64-byte block (Fig 1a).
const OTPsPerBlock = BlockBytes / 16

// MACBits is the size of the per-block MAC (Sec. II: 56-bit).
const MACBits = 56

// macMask truncates a 64-bit value to MACBits.
const macMask = (uint64(1) << MACBits) - 1

// Engine holds the secrets and cipher for one secure-memory domain: an AES
// key for OTP/MAC generation and the eight GF(2^64) dot-product keys. Like
// its AES, an Engine is not safe for concurrent use.
type Engine struct {
	cipher  *AES
	dotKeys [WordsPerBlock]uint64
}

// NewEngine derives an engine from a 16-byte master key. The dot-product
// keys are derived by encrypting fixed labels so that the whole engine is
// reproducible from one secret.
func NewEngine(key []byte) *Engine {
	e := &Engine{cipher: NewAES(key)}
	var in, out [16]byte
	for i := 0; i < WordsPerBlock; i++ {
		binary.LittleEndian.PutUint64(in[:8], uint64(i)+1)
		copy(in[8:], "dotkey--")
		e.cipher.Encrypt(out[:], in[:])
		k := binary.LittleEndian.Uint64(out[:8])
		if k == 0 {
			k = 1 // a zero dot key would void that word's contribution
		}
		e.dotKeys[i] = k
	}
	return e
}

// otpInput packs µ, block address, word index and counter into the 16-byte
// AES input of Fig 1a. µ distinguishes OTP inputs from MAC inputs so the
// same (address, counter) pair never produces colliding pads.
func otpInput(dst *[16]byte, mu uint16, addr uint64, word uint8, counter uint64) {
	binary.LittleEndian.PutUint16(dst[0:2], mu)
	binary.LittleEndian.PutUint64(dst[2:10], addr)
	dst[10] = word
	// 40 counter bits here plus 16 more below exceed any counter the
	// simulator can reach; the packing mirrors the 128-bit input layout.
	binary.LittleEndian.PutUint32(dst[11:15], uint32(counter))
	dst[15] = byte(counter >> 32)
}

const (
	muOTP uint16 = 0x4f54 // "OT"
	muMAC uint16 = 0x4d41 // "MA"
)

// OTP computes the four 16-byte one-time pads for a block identified by
// (addr, counter) and writes them concatenated into dst (64 bytes).
func (e *Engine) OTP(dst []byte, addr, counter uint64) {
	if len(dst) < BlockBytes {
		panic("crypto: OTP destination too small")
	}
	var in [16]byte
	for w := 0; w < OTPsPerBlock; w++ {
		otpInput(&in, muOTP, addr, uint8(w), counter)
		e.cipher.Encrypt(dst[16*w:16*w+16], in[:])
	}
}

// Encrypt XORs a 64-byte plaintext block with the (addr, counter) pad,
// producing ciphertext in dst. dst and src may alias. Decryption is the
// same operation (counter-mode symmetry).
func (e *Engine) Encrypt(dst, src []byte, addr, counter uint64) {
	var pad [BlockBytes]byte
	e.OTP(pad[:], addr, counter)
	for i := 0; i < BlockBytes; i++ {
		dst[i] = src[i] ^ pad[i]
	}
}

// Decrypt recovers plaintext from ciphertext; identical to Encrypt.
func (e *Engine) Decrypt(dst, src []byte, addr, counter uint64) {
	e.Encrypt(dst, src, addr, counter)
}

// macAES computes the counter-only AES half of the MAC (the dashed box of
// Fig 1b), truncated to MACBits.
func (e *Engine) macAES(addr, counter uint64) uint64 {
	var in, out [16]byte
	otpInput(&in, muMAC, addr, 0xff, counter)
	e.cipher.Encrypt(out[:], in[:])
	// "XOR and Truncate": fold the 128-bit result to 64 then truncate.
	v := binary.LittleEndian.Uint64(out[:8]) ^ binary.LittleEndian.Uint64(out[8:])
	return v & macMask
}

// DotProduct computes the GF(2^64) dot product of a 64-byte block with the
// secret keys, truncated to MACBits. Per Sec. IV-D the MAC is computed over
// *ciphertext* so the MC can produce the dot product without decrypting.
func (e *Engine) DotProduct(block []byte) uint64 {
	if len(block) < BlockBytes {
		panic("crypto: block too small for dot product")
	}
	var words [WordsPerBlock]uint64
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(block[8*i : 8*i+8])
	}
	return GF64DotProduct(words[:], e.dotKeys[:]) & macMask
}

// MAC computes the full 56-bit MAC for a ciphertext block: AES(µ, addr,
// counter) XOR dotProduct(ciphertext) (Fig 1b).
func (e *Engine) MAC(ciphertext []byte, addr, counter uint64) uint64 {
	return e.macAES(addr, counter) ^ e.DotProduct(ciphertext)
}

// Verify checks a fetched ciphertext block against its stored MAC.
func (e *Engine) Verify(ciphertext []byte, addr, counter, mac uint64) bool {
	return e.MAC(ciphertext, addr, counter) == mac&macMask
}

// EmbeddedCheck is what the MC sends to L2 under EMCC: MAC ⊕ dot product.
// L2 verifies by comparing it against its locally computed AES half
// (Sec. IV-D), never needing the dot-product keys or the data plaintext.
func (e *Engine) EmbeddedCheck(ciphertext []byte, mac uint64) uint64 {
	return (mac & macMask) ^ e.DotProduct(ciphertext)
}

// VerifyEmbedded is the L2-side check under EMCC: the embedded value must
// equal the locally computed counter-only AES half.
func (e *Engine) VerifyEmbedded(embedded, addr, counter uint64) bool {
	return embedded&macMask == e.macAES(addr, counter)
}
