// Package obs is the fixture's stand-in for the real internal/obs.
package obs

// Tracer mirrors the real nil-able tracer: nil means tracing disabled.
type Tracer struct{ n int }

// tracerNilSafe is the documented nil-safe method set the obsnil pass
// reads, exactly as in the real package.
var tracerNilSafe = map[string]bool{
	"Enabled": true,
}

// Enabled is nil-safe.
func (t *Tracer) Enabled() bool { return t != nil }

// Record is NOT nil-safe: it dereferences the receiver.
func (t *Tracer) Record() { t.n++ }
