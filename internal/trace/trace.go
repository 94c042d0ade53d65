// Package trace records and replays memory-reference traces. Synthetic
// workloads are deterministic, but a recorded trace pins an experiment's
// input completely — it can be shared, diffed, and replayed on any
// simulator configuration (the Pin-trace workflow of the paper's Sec. III).
//
// The format is a compact binary stream: a header (magic, version,
// benchmark name, core count, footprint), one varint-encoded record per
// access, and a trailer. Addresses are zigzag-delta encoded per core, so
// streaming workloads cost ~3 bytes per reference. The trailer is an end
// marker (the core count, one past the last core index), the record count
// and a little-endian CRC-32 (Castagnoli) of every byte before the
// checksum. Read rejects a stream whose trailer is missing, short or
// inconsistent with the records, and any access at or above the footprint
// — the timing simulator lays its counters and integrity tree right above
// it — so a truncated or damaged file fails loudly instead of replaying as
// a different workload.
package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"

	"repro/internal/workload"
)

const (
	magic = "EMCCTRC1"
	// version 2 added the trailer; version-1 streams are rejected.
	version = 2
)

// flag bits in each record.
const (
	flagWrite = 1 << 0
	flagDep   = 1 << 1
)

// castagnoli returns the CRC-32C table of the trailer checksum. The
// table is built on first use, not at package init: building it takes a
// quarter of a millisecond, which every program importing this package
// would otherwise pay at start-up.
func castagnoli() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) }

// Writer streams accesses into a trace.
type Writer struct {
	w         *bufio.Writer
	crc       uint32
	cores     int
	footprint uint64
	lastAddr  []uint64
	count     int64
	closed    bool
}

// NewWriter writes the header for a trace of `cores` interleaved streams
// over addresses [0, footprint).
func NewWriter(w io.Writer, name string, cores int, footprint int64) (*Writer, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("trace: cores must be positive, got %d", cores)
	}
	if footprint < 0 {
		return nil, fmt.Errorf("trace: negative footprint %d", footprint)
	}
	t := &Writer{w: bufio.NewWriter(w), cores: cores, footprint: uint64(footprint), lastAddr: make([]uint64, cores)}
	hdr := []byte(magic)
	hdr = binary.AppendUvarint(hdr, version)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(cores))
	hdr = binary.AppendUvarint(hdr, uint64(footprint))
	if err := t.write(hdr); err != nil {
		return nil, err
	}
	return t, nil
}

// write emits b and folds it into the running checksum.
func (t *Writer) write(b []byte) error {
	t.crc = crc32.Update(t.crc, castagnoli(), b)
	_, err := t.w.Write(b)
	return err
}

// Append records one access of core `core`.
func (t *Writer) Append(core int, a workload.Access) error {
	if t.closed {
		return errors.New("trace: writer closed")
	}
	if core < 0 || core >= t.cores {
		return fmt.Errorf("trace: core %d out of range [0,%d)", core, t.cores)
	}
	if a.Addr >= t.footprint {
		return fmt.Errorf("trace: address %#x outside footprint %#x", a.Addr, t.footprint)
	}
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(core))
	var flags byte
	if a.Write {
		flags |= flagWrite
	}
	if a.Dep {
		flags |= flagDep
	}
	rec = append(rec, flags)
	delta := int64(a.Addr) - int64(t.lastAddr[core])
	rec = binary.AppendVarint(rec, delta)
	rec = binary.AppendUvarint(rec, uint64(a.NonMem))
	t.lastAddr[core] = a.Addr
	t.count++
	return t.write(rec)
}

// Count reports records appended so far.
func (t *Writer) Count() int64 { return t.count }

// Close writes the trailer and flushes the trace. The Writer is unusable
// afterwards.
func (t *Writer) Close() error {
	if t.closed {
		return errors.New("trace: writer closed")
	}
	t.closed = true
	var tail []byte
	tail = binary.AppendUvarint(tail, uint64(t.cores))
	tail = binary.AppendUvarint(tail, uint64(t.count))
	if err := t.write(tail); err != nil {
		return err
	}
	if _, err := t.w.Write(binary.LittleEndian.AppendUint32(nil, t.crc)); err != nil {
		return err
	}
	return t.w.Flush()
}

// Trace is a fully loaded trace.
type Trace struct {
	Name      string
	Cores     int
	Footprint int64
	// PerCore holds each core's access stream.
	PerCore [][]workload.Access
	// Digest is the hex SHA-256 of the stream Read verified. It names the
	// trace's content, which the trailer's CRC-32C only guards against
	// damage; a Trace not loaded by Read has none.
	Digest string
}

// Read loads a complete trace from r, verifying its trailer and that
// every access lies inside the footprint, and stamps its Digest. The
// records are decoded twice: the first pass checks them and counts each
// core's, so the second fills per-core streams allocated at their exact
// lengths, and a stream that fails a check allocates none.
func Read(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	br := bytes.NewReader(data)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nameLen > 4096 {
		return nil, fmt.Errorf("trace: unreasonable name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	cores, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if cores == 0 || cores > 1024 {
		return nil, fmt.Errorf("trace: unreasonable core count %d", cores)
	}
	footprint, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if footprint > math.MaxInt64 {
		return nil, fmt.Errorf("trace: unreasonable footprint %d", footprint)
	}
	recordsAt := len(data) - br.Len()
	perCore := make([]int, cores)
	n, err := decodeRecords(br, cores, footprint, func(core uint64, _ workload.Access) { perCore[core]++ })
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: short trailer: record count: %w", err)
	}
	summed := len(data) - br.Len()
	if br.Len() < 4 {
		return nil, fmt.Errorf("trace: short trailer: %d of 4 checksum bytes", br.Len())
	}
	if br.Len() > 4 {
		return nil, fmt.Errorf("trace: %d bytes after the trailer", br.Len()-4)
	}
	if count != n {
		return nil, fmt.Errorf("trace: trailer counts %d records, stream holds %d", count, n)
	}
	if want, got := binary.LittleEndian.Uint32(data[summed:]), crc32.Checksum(data[:summed], castagnoli()); got != want {
		return nil, fmt.Errorf("trace: checksum mismatch: trailer %#08x, stream %#08x", want, got)
	}
	tr := &Trace{
		Name:      string(nameBuf),
		Cores:     int(cores),
		Footprint: int64(footprint),
		PerCore:   make([][]workload.Access, cores),
	}
	for c, k := range perCore {
		if k > 0 {
			tr.PerCore[c] = make([]workload.Access, 0, k)
		}
	}
	// The first pass accepted these bytes, so this one cannot fail.
	_, _ = decodeRecords(bytes.NewReader(data[recordsAt:]), cores, footprint, func(core uint64, a workload.Access) {
		tr.PerCore[core] = append(tr.PerCore[core], a)
	})
	sum := sha256.Sum256(data)
	tr.Digest = hex.EncodeToString(sum[:])
	return tr, nil
}

// readAll reads r to its end. When r can report its size, as an *os.File
// does, the buffer is allocated once at that size instead of growing by
// doubling.
func readAll(r io.Reader) ([]byte, error) {
	var b bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			b.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// decodeRecords decodes the records from br's position through the
// trailer's end marker, checking that each names one of cores and lies
// inside the footprint, and hands each access to visit. It returns the
// number of records.
func decodeRecords(br *bytes.Reader, cores, footprint uint64, visit func(core uint64, a workload.Access)) (uint64, error) {
	last := make([]uint64, cores)
	var n uint64
	for {
		if br.Len() == 0 {
			return n, fmt.Errorf("trace: missing trailer: stream ends after %d records", n)
		}
		core, err := binary.ReadUvarint(br)
		if err != nil {
			return n, fmt.Errorf("trace: record %d: %w", n, err)
		}
		if core == cores {
			return n, nil // the trailer's end marker
		}
		if core > cores {
			return n, fmt.Errorf("trace: record %d: core %d out of range", n, core)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return n, fmt.Errorf("trace: record %d: %w", n, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return n, fmt.Errorf("trace: record %d: %w", n, err)
		}
		nonMem, err := binary.ReadUvarint(br)
		if err != nil {
			return n, fmt.Errorf("trace: record %d: %w", n, err)
		}
		addr := uint64(int64(last[core]) + delta)
		if addr >= footprint {
			return n, fmt.Errorf("trace: record %d: core %d address %#x outside footprint %#x", n, core, addr, footprint)
		}
		last[core] = addr
		visit(core, workload.Access{
			Addr:   addr,
			Write:  flags&flagWrite != 0,
			Dep:    flags&flagDep != 0,
			NonMem: int(nonMem),
		})
		n++
	}
}

// Generators returns one replaying generator per core. Streams loop when
// exhausted (matching the synthetic generators' unbounded contract); a
// trace with an empty per-core stream cannot be replayed.
func (t *Trace) Generators() ([]workload.Generator, error) {
	gens := make([]workload.Generator, t.Cores)
	for c := range gens {
		if len(t.PerCore[c]) == 0 {
			return nil, fmt.Errorf("trace: core %d has no accesses", c)
		}
		gens[c] = &replayer{name: t.Name, accesses: t.PerCore[c], footprint: t.Footprint}
	}
	return gens, nil
}

// replayer is a looping workload.Generator over a recorded stream.
type replayer struct {
	name      string
	accesses  []workload.Access
	footprint int64
	pos       int
}

func (r *replayer) Name() string     { return r.name }
func (r *replayer) Footprint() int64 { return r.footprint }

func (r *replayer) Next() workload.Access {
	a := r.accesses[r.pos]
	r.pos++
	if r.pos == len(r.accesses) {
		r.pos = 0
	}
	return a
}

// Record captures `refs` references (round-robin across cores) from a
// synthetic benchmark into w. Each core records refs/cores of them; a
// budget that leaves a core none is an error, since the trace could not
// be replayed.
func Record(w io.Writer, bench string, cores int, seed uint64, refs int64, sc workload.Scale) (int64, error) {
	if refs < int64(cores) {
		return 0, fmt.Errorf("trace: %d references leave some of %d cores none", refs, cores)
	}
	gens, err := workload.NewSet(bench, cores, seed, sc)
	if err != nil {
		return 0, err
	}
	space, err := workload.SpaceBytes(bench, cores, sc)
	if err != nil {
		return 0, err
	}
	tw, err := NewWriter(w, bench, cores, space)
	if err != nil {
		return 0, err
	}
	perCore := refs / int64(cores)
	for i := int64(0); i < perCore; i++ {
		for c := range gens {
			if err := tw.Append(c, gens[c].Next()); err != nil {
				return tw.Count(), err
			}
		}
	}
	return tw.Count(), tw.Close()
}
