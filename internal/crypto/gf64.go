package crypto

// GF(2^64) arithmetic for the MAC dot product of Figure 1b. Elements are
// uint64 polynomials; multiplication reduces modulo the standard primitive
// polynomial x^64 + x^4 + x^3 + x + 1 (0x1B tail).

// gf64ReductionTail is the low part of the reduction polynomial.
const gf64ReductionTail uint64 = 0x1b

// GF64Mul multiplies two GF(2^64) elements.
func GF64Mul(a, b uint64) uint64 {
	// Carry-less multiply into a 128-bit product, then reduce. The
	// product is built 1 bit of b at a time; 64 iterations on uint64s is
	// plenty fast for the functional layer.
	var hi, lo uint64
	for i := 0; i < 64; i++ {
		if b&(1<<uint(i)) != 0 {
			lo ^= a << uint(i)
			if i > 0 {
				hi ^= a >> uint(64-i)
			}
		}
	}
	return gf64Reduce(hi, lo)
}

// gf64Reduce folds a 128-bit carry-less product into GF(2^64).
func gf64Reduce(hi, lo uint64) uint64 {
	// x^64 = x^4 + x^3 + x + 1 (mod p). Folding the high word once can
	// itself overflow by at most 4 bits, so fold twice.
	for hi != 0 {
		t := hi
		hi = 0
		// t * (x^4 + x^3 + x + 1)
		lo ^= t ^ (t << 1) ^ (t << 3) ^ (t << 4)
		hi ^= (t >> 63) ^ (t >> 61) ^ (t >> 60)
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
