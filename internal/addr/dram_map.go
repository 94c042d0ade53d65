package addr

import (
	"fmt"
	"math/bits"
)

// Loc identifies where a block lives in DRAM.
type Loc struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
}

// DRAMMapper translates physical block addresses to DRAM coordinates with
// the XOR-based (Skylake-like, Table I) mapping: channel bits come from
// address bits 8.. (the 3-bit channel ID of Sec. VI-D under 8 channels) and
// the bank index is permuted by XORing with low row bits, which spreads
// row-conflicting streams across banks.
type DRAMMapper struct {
	channels  int
	ranks     int
	banks     int
	rowBlocks uint64 // blocks per row

	chShift  uint // in block-index bits: byte bits 8.. == block bits 2..
	chBits   uint
	colBits  uint
	bankBits uint
}

// NewDRAMMapper builds a mapper. channels, ranks, banksPerRank and
// rowBytes/64 must all be powers of two.
func NewDRAMMapper(channels, ranks, banksPerRank int, rowBytes int64) *DRAMMapper {
	m := &DRAMMapper{
		channels:  channels,
		ranks:     ranks,
		banks:     banksPerRank,
		rowBlocks: uint64(rowBytes) / BlockBytes,
		chShift:   2, // byte address bits 8..: block index bits 2..
	}
	for _, v := range []int{channels, ranks, banksPerRank, int(m.rowBlocks)} {
		if v <= 0 || v&(v-1) != 0 {
			panic(fmt.Sprintf("addr: DRAM geometry values must be powers of two, got %d", v))
		}
	}
	m.chBits = uint(bits.TrailingZeros(uint(channels)))
	m.colBits = uint(bits.TrailingZeros64(m.rowBlocks))
	m.bankBits = uint(bits.TrailingZeros(uint(ranks * banksPerRank)))
	return m
}

// BanksPerChannel reports ranks*banksPerRank.
func (m *DRAMMapper) BanksPerChannel() int { return m.ranks * m.banks }

// Map locates a block index in DRAM.
func (m *DRAMMapper) Map(block uint64) Loc {
	// Channel from block bits [chShift, chShift+chBits).
	ch := 0
	rest := block
	if m.chBits > 0 {
		ch = int((block >> m.chShift) & (uint64(m.channels) - 1))
		low := block & ((1 << m.chShift) - 1)
		high := block >> (m.chShift + m.chBits)
		rest = low | high<<m.chShift
	}
	// Column (within-row) bits are the lowest of the per-channel index so
	// sequential blocks stream within one row.
	row := rest >> (m.colBits + m.bankBits)
	bank := (rest >> m.colBits) & ((1 << m.bankBits) - 1)
	// Permutation-based bank indexing: XOR with the low row bits.
	bank ^= row & ((1 << m.bankBits) - 1)
	return Loc{
		Channel: ch,
		Rank:    int(bank) / m.banks,
		Bank:    int(bank) % m.banks,
		Row:     row,
	}
}

// BankID flattens (rank, bank) into one per-channel bank index.
func (m *DRAMMapper) BankID(l Loc) int { return l.Rank*m.banks + l.Bank }
