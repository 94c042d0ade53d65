// Package secmem is the functional secure-memory model: a simulated DRAM
// image in which data blocks are stored as counter-mode ciphertext with
// co-located MACs (Sec. II), counters are organised per internal/ctr, and
// counter blocks are protected by an integrity tree (internal/itree).
//
// It exists to prove the cryptographic dataflow end to end — that
// decrypt(encrypt(x)) == x, that any tampering with ciphertext, MACs or
// counters is detected, and that the MAC⊕dot-product embedding EMCC relies
// on (Sec. IV-D) verifies the same blocks a full MAC check would.
package secmem

import (
	"errors"
	"fmt"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ctr"
	"repro/internal/itree"
)

// ErrTampered is returned by Read when verification fails.
var ErrTampered = errors.New("secmem: integrity verification failed")

// block is one data block's DRAM image: ciphertext plus its MAC (the MAC is
// co-located with data and ECC in the same DRAM access, Sec. V). counter
// records which counter value the ciphertext was produced under, which the
// overflow re-encryption path needs after a rebase wipes the minors.
type block struct {
	ciphertext [crypto.BlockBytes]byte
	mac        uint64
	counter    uint64
}

// Memory is a functional secure memory.
type Memory struct {
	space *addr.Space
	org   ctr.Organisation
	eng   *crypto.Engine
	tree  *itree.Tree
	data  map[uint64]*block // data block index -> DRAM image
	// direct, when non-nil, replaces the counter-mode machinery with a
	// per-block tweakable cipher (CtrBipBip / CtrInSRAM): no counters,
	// no MACs, no tree — confidentiality only.
	direct *directCipher
}

// New builds a functional secure memory over dataBytes of protected space
// using the given counter design and a 16-byte master key; a key of any
// other length is an error.
func New(dataBytes int64, design config.CounterDesign, key []byte) (*Memory, error) {
	if design == config.CtrNone {
		return nil, fmt.Errorf("secmem: %v has no cryptography to model", design)
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("secmem: AES-128 needs a 16-byte key, got %d bytes", len(key))
	}
	if !design.HasCounters() {
		// Counter-free direct-cipher designs: a data-only address space
		// and an XEX tweakable cipher keyed off the same master key.
		return &Memory{
			space:  addr.NewSpace(dataBytes, 0),
			direct: newDirectCipher(key),
			data:   make(map[uint64]*block),
		}, nil
	}
	org := ctr.New(design)
	space := addr.NewSpace(dataBytes, org.Coverage())
	eng := crypto.NewEngine(key)
	return &Memory{
		space: space,
		org:   org,
		eng:   eng,
		tree:  itree.New(space, org, eng),
		data:  make(map[uint64]*block),
	}, nil
}

// Space exposes the address map.
func (m *Memory) Space() *addr.Space { return m.space }

// Tree exposes the integrity tree (tests tamper with it directly).
func (m *Memory) Tree() *itree.Tree { return m.tree }

// dataBlockOf validates and converts a byte address.
func (m *Memory) dataBlockOf(byteAddr uint64) (uint64, error) {
	if byteAddr%crypto.BlockBytes != 0 {
		return 0, fmt.Errorf("secmem: address %#x not block-aligned", byteAddr)
	}
	blk := addr.BlockOf(byteAddr)
	if blk >= m.space.DataBlocks() {
		return 0, fmt.Errorf("secmem: address %#x beyond protected region", byteAddr)
	}
	return blk, nil
}

// Write encrypts a 64-byte plaintext block and stores ciphertext + MAC,
// advancing the block's write counter first (a fresh OTP per write, Sec.
// II). Counter metadata is written back write-through so the tree stays
// verifiable.
func (m *Memory) Write(byteAddr uint64, plaintext []byte) ([]ctr.Overflow, error) {
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return nil, err
	}
	if len(plaintext) != crypto.BlockBytes {
		return nil, fmt.Errorf("secmem: plaintext must be %d bytes, got %d", crypto.BlockBytes, len(plaintext))
	}
	if m.direct != nil {
		b := m.data[blk]
		if b == nil {
			b = &block{}
			m.data[blk] = b
		}
		m.direct.encrypt(b.ciphertext[:], plaintext, byteAddr)
		return nil, nil
	}
	var ovs []ctr.Overflow
	if ov := m.tree.IncrementCounterOf(blk); ov.Happened {
		ovs = append(ovs, ov)
		// Rebase re-encrypts every block the counter block covers
		// under its fresh counters.
		m.reencryptCovered(blk)
	}
	b := m.data[blk]
	if b == nil {
		b = &block{}
		m.data[blk] = b
	}
	counter := m.tree.CounterOf(blk)
	m.eng.Encrypt(b.ciphertext[:], plaintext, byteAddr, counter)
	b.mac = m.eng.MAC(b.ciphertext[:], byteAddr, counter)
	b.counter = counter
	// Keep metadata MACs consistent (write-through tree).
	parent, _ := m.space.ParentOf(blk)
	ovs = append(ovs, m.tree.WriteBackPath(parent)...)
	return ovs, nil
}

// reencryptCovered re-encrypts every already-written sibling of blk under
// its post-rebase counter, as a real MC does during split-counter overflow
// (Sec. V). Counter-mode decryption needs the counter value used at
// encryption time, which a rebase erases from the organisation — hence each
// stored block remembers its own encryption counter.
func (m *Memory) reencryptCovered(dataBlk uint64) {
	ctrBlk := m.space.CounterBlockOf(dataBlk)
	first, n := m.space.CoveredRange(ctrBlk)
	for i := uint64(0); i < n; i++ {
		sib := first + i
		b := m.data[sib]
		if b == nil {
			continue
		}
		a := addr.AddrOf(sib)
		var plain [crypto.BlockBytes]byte
		m.eng.Decrypt(plain[:], b.ciphertext[:], a, b.counter)
		newCtr := m.tree.CounterOf(sib)
		m.eng.Encrypt(b.ciphertext[:], plain[:], a, newCtr)
		b.mac = m.eng.MAC(b.ciphertext[:], a, newCtr)
		b.counter = newCtr
	}
}

// Read decrypts and verifies a block, returning its plaintext. Unwritten
// blocks read as zeros. Verification failure returns ErrTampered wrapped
// with the failing address.
func (m *Memory) Read(byteAddr uint64) ([]byte, error) {
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return nil, err
	}
	b := m.data[blk]
	if b == nil {
		return make([]byte, crypto.BlockBytes), nil
	}
	if m.direct != nil {
		// Direct-cipher designs carry no MAC: decryption always
		// "succeeds"; tampered ciphertext yields garbled plaintext
		// instead of ErrTampered (the confidentiality-only trade-off).
		plain := make([]byte, crypto.BlockBytes)
		m.direct.decrypt(plain, b.ciphertext[:], byteAddr)
		return plain, nil
	}
	// Verify the counter path first (MC verifies counter blocks before
	// handing counters to anyone, Sec. IV-C).
	parent, _ := m.space.ParentOf(blk)
	if bad, ok := m.tree.VerifyPath(parent); !ok {
		return nil, fmt.Errorf("%w: metadata block %#x", ErrTampered, addr.AddrOf(bad))
	}
	counter := m.tree.CounterOf(blk)
	if !m.eng.Verify(b.ciphertext[:], byteAddr, counter, b.mac) {
		return nil, fmt.Errorf("%w: data block %#x", ErrTampered, byteAddr)
	}
	plain := make([]byte, crypto.BlockBytes)
	m.eng.Decrypt(plain, b.ciphertext[:], byteAddr, counter)
	return plain, nil
}

// ReadViaEmbedded performs the EMCC-split read of Sec. IV-D: the "MC half"
// produces ciphertext plus MAC⊕dotProduct, and the "L2 half" verifies that
// embedded value against its locally computed counter-only AES result and
// then decrypts. It must accept and reject exactly the same blocks as Read.
func (m *Memory) ReadViaEmbedded(byteAddr uint64) ([]byte, error) {
	if m.direct != nil {
		return nil, fmt.Errorf("secmem: embedded split read needs counter-mode cryptography")
	}
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return nil, err
	}
	b := m.data[blk]
	if b == nil {
		return make([]byte, crypto.BlockBytes), nil
	}
	parent, _ := m.space.ParentOf(blk)
	if bad, ok := m.tree.VerifyPath(parent); !ok {
		return nil, fmt.Errorf("%w: metadata block %#x", ErrTampered, addr.AddrOf(bad))
	}
	// MC side: no counter needed, only ciphertext and its stored MAC.
	embedded := m.eng.EmbeddedCheck(b.ciphertext[:], b.mac)
	// L2 side: locally cached counter + AES.
	counter := m.tree.CounterOf(blk)
	if !m.eng.VerifyEmbedded(embedded, byteAddr, counter) {
		return nil, fmt.Errorf("%w: data block %#x (embedded check)", ErrTampered, byteAddr)
	}
	plain := make([]byte, crypto.BlockBytes)
	m.eng.Decrypt(plain, b.ciphertext[:], byteAddr, counter)
	return plain, nil
}

// TamperData flips a bit in a block's stored ciphertext (bus/DRAM attack).
func (m *Memory) TamperData(byteAddr uint64) error {
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return err
	}
	b := m.data[blk]
	if b == nil {
		return fmt.Errorf("secmem: block %#x never written; nothing to tamper", byteAddr)
	}
	b.ciphertext[0] ^= 0x01
	return nil
}

// TamperMAC flips a bit in a block's stored MAC.
func (m *Memory) TamperMAC(byteAddr uint64) error {
	if m.direct != nil {
		return fmt.Errorf("secmem: direct-cipher designs store no MAC")
	}
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return err
	}
	b := m.data[blk]
	if b == nil {
		return fmt.Errorf("secmem: block %#x never written; nothing to tamper", byteAddr)
	}
	b.mac ^= 0x1
	return nil
}

// ReplayOld simulates a replay attack: it re-encrypts the block's current
// plaintext under a *stale* counter (current-1) with a matching stale MAC,
// the classic attack that per-write counters plus the tree defeat.
func (m *Memory) ReplayOld(byteAddr uint64) error {
	if m.direct != nil {
		return fmt.Errorf("secmem: direct-cipher designs have no counters to replay against")
	}
	blk, err := m.dataBlockOf(byteAddr)
	if err != nil {
		return err
	}
	b := m.data[blk]
	if b == nil {
		return fmt.Errorf("secmem: block %#x never written; nothing to replay", byteAddr)
	}
	cur := m.tree.CounterOf(blk)
	if cur == 0 {
		return fmt.Errorf("secmem: block %#x has counter 0; no older version exists", byteAddr)
	}
	var plain [crypto.BlockBytes]byte
	m.eng.Decrypt(plain[:], b.ciphertext[:], byteAddr, cur)
	stale := cur - 1
	m.eng.Encrypt(b.ciphertext[:], plain[:], byteAddr, stale)
	b.mac = m.eng.MAC(b.ciphertext[:], byteAddr, stale)
	return nil
}
