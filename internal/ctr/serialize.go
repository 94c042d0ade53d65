package ctr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// SerializedBytes is the canonical on-"DRAM" image size of a counter block.
const SerializedBytes = 64

// Serializer is implemented by organisations that can produce a canonical
// 64-byte image of a counter block, used by the integrity tree to MAC
// counter blocks themselves. All three organisations implement it.
type Serializer interface {
	Serialize(blk uint64, dst *[SerializedBytes]byte)
}

func (m *mono) Serialize(blk uint64, dst *[SerializedBytes]byte) {
	for i, v := range m.blocks[blk] {
		binary.LittleEndian.PutUint64(dst[8*i:8*i+8], v)
	}
}

func (s *sc64) Serialize(blk uint64, dst *[SerializedBytes]byte) {
	for i := range dst {
		dst[i] = 0
	}
	b := s.blocks[blk]
	if b == nil {
		return
	}
	binary.LittleEndian.PutUint64(dst[:8], b.major)
	// 64 7-bit minors pack exactly into the remaining 56 bytes.
	bitPos := 64
	for _, v := range b.minors {
		putBits(dst, bitPos, uint64(v), 7)
		bitPos += 7
	}
}

func (m *morphable) Serialize(blk uint64, dst *[SerializedBytes]byte) {
	b := m.blocks[blk]
	if b == nil {
		b = &morphBlock{}
	}
	if !EncodeMorphable(b.major, &b.minors, dst) {
		// Increment rebases the moment a state stops being representable,
		// so a stored block can never reach here.
		panic("ctr: morphable block in unrepresentable state")
	}
}

// Morphable image layout (bit-exact and decodable, mirroring the morphing
// formats of Morphable Counters [MICRO'18]):
//
//	bytes [0:8)   major counter, little-endian
//	byte  8       format tag: 0 = uniform, else w = minor width in bits
//	uniform:      128 minors at 3 bits each in bytes [9:57)
//	ZCC (tag=w):  128-bit presence bitmap in bytes [9:25), then one w-bit
//	              field per set bitmap bit in bytes [25:57), k*w <= 256
//
// Trailing bits are zero. Images are canonical: DecodeMorphable rejects any
// image EncodeMorphable would not produce, so encode∘decode and
// decode∘encode are both identities (the fuzz target asserts this).
const (
	morphTagOff     = 8
	morphUniformOff = 9  // 48 bytes of 3-bit minors
	morphBitmapOff  = 9  // 16-byte presence bitmap (ZCC)
	morphPayloadOff = 25 // packed non-zero minors (ZCC)
)

// EncodeMorphable writes the canonical image of a morphable counter block.
// It reports false — leaving dst zeroed — when the minor population fits no
// format (the caller must have rebased first).
func EncodeMorphable(major uint64, minors *[128]uint32, dst *[SerializedBytes]byte) bool {
	for i := range dst {
		dst[i] = 0
	}
	var nz int
	var maxv uint32
	for _, v := range minors {
		if v != 0 {
			nz++
			if v > maxv {
				maxv = v
			}
		}
	}
	if maxv >= 1<<uniformBits {
		if nz*bits.Len32(maxv) > zccPayloadBits {
			return false
		}
	}
	binary.LittleEndian.PutUint64(dst[:8], major)
	if maxv < 1<<uniformBits {
		pos := morphUniformOff * 8
		for _, v := range minors {
			putBits(dst, pos, uint64(v), uniformBits)
			pos += uniformBits
		}
		return true
	}
	w := bits.Len32(maxv)
	dst[morphTagOff] = byte(w)
	pos := morphPayloadOff * 8
	for i, v := range minors {
		if v == 0 {
			continue
		}
		dst[morphBitmapOff+i/8] |= 1 << uint(i%8)
		putBits(dst, pos, uint64(v), w)
		pos += w
	}
	return true
}

// DecodeMorphable parses a canonical morphable image back into its major
// counter and minor vector, rejecting malformed or non-canonical images.
func DecodeMorphable(src *[SerializedBytes]byte) (major uint64, minors [128]uint32, err error) {
	major = binary.LittleEndian.Uint64(src[:8])
	tag := int(src[morphTagOff])
	if tag == 0 {
		pos := morphUniformOff * 8
		var maxv uint32
		for i := range minors {
			minors[i] = uint32(getBits(src, pos, uniformBits))
			if minors[i] > maxv {
				maxv = minors[i]
			}
			pos += uniformBits
		}
		if !zeroBitsFrom(src, pos) {
			return 0, [128]uint32{}, fmt.Errorf("ctr: uniform morphable image has non-zero padding")
		}
		return major, minors, nil
	}
	if tag < uniformBits+1 || tag > 32 {
		return 0, [128]uint32{}, fmt.Errorf("ctr: invalid morphable format tag %d", tag)
	}
	w := tag
	pos := morphPayloadOff * 8
	var k int
	var maxv uint32
	for i := range minors {
		if src[morphBitmapOff+i/8]&(1<<uint(i%8)) == 0 {
			continue
		}
		k++
		if k*w > zccPayloadBits {
			return 0, [128]uint32{}, fmt.Errorf("ctr: ZCC image overflows payload: %d minors at %d bits", k, w)
		}
		v := uint32(getBits(src, pos, w))
		pos += w
		if v == 0 {
			return 0, [128]uint32{}, fmt.Errorf("ctr: ZCC image encodes a zero minor")
		}
		minors[i] = v
		if v > maxv {
			maxv = v
		}
	}
	if bits.Len32(maxv) != w {
		return 0, [128]uint32{}, fmt.Errorf("ctr: non-canonical ZCC width %d for max minor %d", w, maxv)
	}
	if !zeroBitsFrom(src, pos) {
		return 0, [128]uint32{}, fmt.Errorf("ctr: ZCC morphable image has non-zero padding")
	}
	return major, minors, nil
}

// putBits writes the low `n` bits of v into dst starting at bit position
// pos (little-endian bit order within bytes).
func putBits(dst *[SerializedBytes]byte, pos int, v uint64, n int) {
	for i := 0; i < n; i++ {
		if v&(1<<uint(i)) != 0 {
			p := pos + i
			dst[p/8] |= 1 << uint(p%8)
		}
	}
}

// getBits reads n bits starting at bit position pos (inverse of putBits).
func getBits(src *[SerializedBytes]byte, pos, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		p := pos + i
		if src[p/8]&(1<<uint(p%8)) != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// zeroBitsFrom reports whether every bit from position pos to the end of
// the image is zero (canonical padding).
func zeroBitsFrom(src *[SerializedBytes]byte, pos int) bool {
	for p := pos; p < SerializedBytes*8; p++ {
		if src[p/8]&(1<<uint(p%8)) != 0 {
			return false
		}
	}
	return true
}
