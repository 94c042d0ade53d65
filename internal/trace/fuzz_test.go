package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/workload"
)

// FuzzRead feeds arbitrary bytes to the trace parser: it must reject or
// accept cleanly, never panic, and accept only traces whose accesses all
// lie inside the footprint and whose record count matches the trailer's.
func FuzzRead(f *testing.F) {
	// Seed with a valid trace and a few mutations.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "seed", 2, 1<<16)
	w.Append(0, workload.Access{Addr: 0x1000, NonMem: 2})
	w.Append(1, workload.Access{Addr: 0x2000, Write: true})
	w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte("EMCCTRC1"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Cores <= 0 || tr.Cores > 1024 {
			t.Fatalf("accepted unreasonable core count %d", tr.Cores)
		}
		if len(tr.PerCore) != tr.Cores {
			t.Fatalf("%d per-core streams for %d cores", len(tr.PerCore), tr.Cores)
		}
		records := 0
		for c, pc := range tr.PerCore {
			for i, a := range pc {
				if a.Addr >= uint64(tr.Footprint) {
					t.Fatalf("core %d access %d: address %#x outside footprint %#x", c, i, a.Addr, tr.Footprint)
				}
			}
			records += len(pc)
		}
		if count, ok := trailerCount(data); !ok || count != uint64(records) {
			t.Fatalf("accepted %d records; trailer count %d (parsed: %v)", records, count, ok)
		}
	})
}

// trailerCount decodes the record count of a stream's trailer from the
// end, independently of Read: it is the uvarint just before the 4-byte
// checksum, and a uvarint's bytes all carry the continuation bit except
// its last.
func trailerCount(data []byte) (uint64, bool) {
	end := len(data) - 4
	if end < 1 || data[end-1]&0x80 != 0 {
		return 0, false
	}
	start := end - 1
	for start > 0 && data[start-1]&0x80 != 0 {
		start--
	}
	count, n := binary.Uvarint(data[start:end])
	return count, n == end-start
}
