package crypto

// GF(2^64) arithmetic for the MAC dot product of Figure 1b. Elements are
// uint64 polynomials; multiplication reduces modulo the standard primitive
// polynomial x^64 + x^4 + x^3 + x + 1 (0x1B tail).

// gf64ReductionTail is the low part of the reduction polynomial.
const gf64ReductionTail uint64 = 0x1b

// GF64Mul multiplies two GF(2^64) elements without a branch on either.
func GF64Mul(a, b uint64) uint64 {
	// Carry-less multiply four bits of b at a time: lo[j] and hi[j] are
	// the low word and the top three bits of a·j, the product of a and
	// the polynomial of nibble j.
	var lo, hi [16]uint64
	lo[1] = a
	for j := 2; j < 16; j += 2 {
		lo[j] = lo[j/2] << 1
		hi[j] = hi[j/2]<<1 | lo[j/2]>>63
		lo[j+1] = lo[j] ^ a
		hi[j+1] = hi[j]
	}
	// Horner over b's nibbles, most significant first, into a 128-bit
	// product.
	var pl, ph uint64
	for i := 60; i >= 0; i -= 4 {
		n := b >> uint(i) & 15
		ph = ph<<4 ^ pl>>60 ^ hi[n]
		pl = pl<<4 ^ lo[n]
	}
	return gf64Reduce(ph, pl)
}

// gf64Reduce folds a 128-bit carry-less product into GF(2^64).
func gf64Reduce(hi, lo uint64) uint64 {
	// x^64 = x^4 + x^3 + x + 1 (mod p). Folding the high word t adds
	// t·(x^4 + x^3 + x + 1), whose bits above x^63 are t's top four
	// shifted down; folding those four leaves none.
	for range 2 {
		lo ^= hi ^ hi<<1 ^ hi<<3 ^ hi<<4
		hi = hi>>63 ^ hi>>61 ^ hi>>60
	}
	return lo
}

// GF64DotProduct computes sum_i(words[i] * keys[i]) in GF(2^64). The two
// slices must be the same length; the panic guards a programming error, not
// runtime input.
func GF64DotProduct(words, keys []uint64) uint64 {
	if len(words) != len(keys) {
		panic("crypto: dot product length mismatch")
	}
	var acc uint64
	for i := range words {
		acc ^= GF64Mul(words[i], keys[i])
	}
	return acc
}
