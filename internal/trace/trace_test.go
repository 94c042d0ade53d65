package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/fsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "demo", 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	in := []struct {
		core int
		a    workload.Access
	}{
		{0, workload.Access{Addr: 0x1000, NonMem: 3}},
		{1, workload.Access{Addr: 0x2000, Write: true, NonMem: 1}},
		{0, workload.Access{Addr: 0x1040, Dep: true, NonMem: 0}},
		{1, workload.Access{Addr: 0x1fc0, NonMem: 7}},
	}
	for _, r := range in {
		if err := w.Append(r.core, r.a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sum := sha256.Sum256(buf.Bytes())
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "demo" || tr.Cores != 2 || tr.Footprint != 1<<20 {
		t.Fatalf("header = %+v", tr)
	}
	if tr.Digest != hex.EncodeToString(sum[:]) {
		t.Fatalf("Digest = %q, want the SHA-256 of the stream", tr.Digest)
	}
	if len(tr.PerCore[0]) != 2 || len(tr.PerCore[1]) != 2 {
		t.Fatalf("per-core counts: %d/%d", len(tr.PerCore[0]), len(tr.PerCore[1]))
	}
	if tr.PerCore[0][1] != in[2].a {
		t.Fatalf("record mismatch: %+v vs %+v", tr.PerCore[0][1], in[2].a)
	}
	if tr.PerCore[1][1] != in[3].a {
		t.Fatalf("record mismatch: %+v vs %+v", tr.PerCore[1][1], in[3].a)
	}
}

func TestRecordMatchesGenerator(t *testing.T) {
	var buf bytes.Buffer
	const refs = 4000
	n, err := Record(&buf, "canneal", 2, 7, refs, workload.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if n != refs {
		t.Fatalf("recorded %d refs, want %d", n, refs)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Replay must equal a fresh generator with the same seed.
	fresh, _ := workload.NewSet("canneal", 2, 7, workload.TestScale())
	gens, err := tr.Generators()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < refs/2; i++ {
		for c := 0; c < 2; c++ {
			want := fresh[c].Next()
			got := gens[c].Next()
			if got != want {
				t.Fatalf("core %d ref %d: %+v != %+v", c, i, got, want)
			}
		}
	}
}

func TestReplayLoops(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "loop", 1, 1<<12)
	w.Append(0, workload.Access{Addr: 0x40})
	w.Append(0, workload.Access{Addr: 0x80})
	w.Close()
	tr, _ := Read(&buf)
	gens, _ := tr.Generators()
	a1 := gens[0].Next()
	gens[0].Next()
	a3 := gens[0].Next() // wrapped
	if a1 != a3 {
		t.Fatalf("replay did not loop: %+v vs %+v", a1, a3)
	}
}

func TestTraceDrivesFunctionalSim(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, "canneal", 4, 1, 40_000, workload.TestScale()); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := tr.Generators()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	s, err := fsim.New(&cfg, fsim.Options{
		Cores: 4, Refs: 40_000,
		Generators: gens, DataBytes: tr.Footprint,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.Stats().Counter(stats.FsimDataRead) == 0 {
		t.Fatal("trace replay produced no accesses")
	}

	// The replay must match the synthetic original exactly.
	direct, err := fsim.New(&cfg, fsim.Options{
		Benchmark: "canneal", Cores: 4, Seed: 1, Refs: 40_000,
		Scale: workload.TestScale(),
	})
	if err != nil {
		t.Fatal(err)
	}
	direct.Run()
	for _, m := range []string{stats.FsimL2DataMiss, stats.FsimDRAMDataRead, stats.FsimDRAMCtrRead} {
		if a, b := s.Stats().Counter(m), direct.Stats().Counter(m); a != b {
			t.Fatalf("%s: trace %d != synthetic %d", m, a, b)
		}
	}
}

func TestCorruptHeaderRejected(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, "x", 0, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
	w, _ := NewWriter(&buf, "x", 1, 1)
	if err := w.Append(5, workload.Access{}); err == nil {
		t.Fatal("out-of-range core accepted")
	}
	if err := w.Append(0, workload.Access{Addr: 1}); err == nil {
		t.Fatal("address outside the footprint accepted")
	}
	w.Close()
	if err := w.Append(0, workload.Access{}); err == nil {
		t.Fatal("append after close accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("second close accepted")
	}
	if _, err := NewWriter(&buf, "x", 1, -1); err == nil {
		t.Fatal("negative footprint accepted")
	}
}

func TestTruncatedStreamRejected(t *testing.T) {
	full, ends := sampleTrace(t)
	// Chop inside the last record: decoding must error, not hang or
	// fabricate records.
	for cut := ends[len(ends)-1] - 1; cut > ends[len(ends)-2]; cut-- {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// sampleTrace writes a small two-core trace and reports its bytes and the
// stream offset at which each record ends.
func sampleTrace(t *testing.T) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x", 2, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int
	for i := 0; i < 8; i++ {
		if err := w.Append(i%2, workload.Access{Addr: uint64(i) * 0x140, NonMem: i}); err != nil {
			t.Fatal(err)
		}
		if err := w.w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ends
}

// reseal recomputes a stream's trailer checksum after a test edits it, so
// the edit is caught by the check the test targets and not the checksum.
func reseal(b []byte) []byte {
	b = append([]byte(nil), b...)
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], castagnoli()))
	return b
}

// wantErr reads b and requires an error naming what failed.
func wantErr(t *testing.T, b []byte, what string) {
	t.Helper()
	_, err := Read(bytes.NewReader(b))
	if err == nil {
		t.Fatalf("accepted; want an error naming %q", what)
	}
	if !strings.Contains(err.Error(), what) {
		t.Fatalf("error %q does not name %q", err, what)
	}
}

// TestTruncatedAtRecordBoundaryRejected: a stream cut between records
// decodes cleanly as a shorter trace, so only the missing trailer can
// reveal the cut.
func TestTruncatedAtRecordBoundaryRejected(t *testing.T) {
	full, ends := sampleTrace(t)
	for _, cut := range ends {
		wantErr(t, full[:cut], "missing trailer")
	}
}

// TestShortTrailerRejected cuts the stream inside its trailer, and appends
// to it.
func TestShortTrailerRejected(t *testing.T) {
	full, ends := sampleTrace(t)
	wantErr(t, full[:ends[len(ends)-1]+1], "short trailer: record count")
	for cut := len(full) - 4; cut < len(full); cut++ {
		wantErr(t, full[:cut], "short trailer")
	}
	wantErr(t, append(append([]byte(nil), full...), 0), "after the trailer")
}

// TestTrailerCountMismatchRejected drops the last record and reseals the
// checksum: the records still decode, but the count no longer matches.
func TestTrailerCountMismatchRejected(t *testing.T) {
	full, ends := sampleTrace(t)
	dropped := append(append([]byte(nil), full[:ends[len(ends)-2]]...), full[ends[len(ends)-1]:]...)
	wantErr(t, reseal(dropped), "trailer counts 8 records, stream holds 7")
}

// TestChecksumMismatchRejected flips one record's write flag: the stream
// still decodes to a valid trace of a different workload.
func TestChecksumMismatchRejected(t *testing.T) {
	full, ends := sampleTrace(t)
	bad := append([]byte(nil), full...)
	bad[ends[2]+1] ^= flagWrite // record 3: core byte, then flags
	wantErr(t, bad, "checksum mismatch")
}

// TestAddressOutsideFootprintRejected: tsim places counters and the
// integrity tree right above the footprint, so an access there would land
// on metadata.
func TestAddressOutsideFootprintRejected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x", 1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	w.footprint = math.MaxUint64 // let the writer emit what Append refuses
	if err := w.Append(0, workload.Access{Addr: 0x40}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, workload.Access{Addr: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantErr(t, buf.Bytes(), "address 0x1000 outside footprint 0x1000")
}

// TestVersion1Rejected: version-1 streams carry no trailer, so nothing
// would reveal their truncation.
func TestVersion1Rejected(t *testing.T) {
	v1 := []byte(magic)
	v1 = binary.AppendUvarint(v1, 1)
	v1 = append(v1, 1, 'x', 1, 0x80, 0x20) // name "x", 1 core, 4 KB
	v1 = append(v1, 0, 0, 0x80, 0x01, 0)   // core 0 reads 0x40
	wantErr(t, v1, "unsupported version 1")
}

func TestRecordUnknownBenchmark(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(&buf, "nosuch", 2, 1, 100, workload.TestScale()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Record(&buf, "canneal", 4, 1, 3, workload.TestScale()); err == nil || buf.Len() != 0 {
		t.Fatalf("3 references over 4 cores: err = %v after %d bytes, want an error before any", err, buf.Len())
	}
}

func TestEmptyCoreStreamCannotReplay(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "x", 2, 1<<12)
	w.Append(0, workload.Access{Addr: 0x40})
	w.Close() // core 1 never got an access
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Generators(); err == nil {
		t.Fatal("empty core stream replayed")
	}
}
