package emcc

// IntensityMonitor implements Sec. IV-F's dynamic EMCC control for
// non-memory-intensive applications: an L2 periodically compares how many
// of its misses were satisfied by DRAM against how many requests it
// received, and turns EMCC off (offloading all cryptography back to the MC)
// when the application is not memory-intensive — saving L2 space and
// energy where EMCC cannot help.
type IntensityMonitor struct {
	// Window is the sampling period in L2 requests.
	Window int64
	// MinDRAMPerK is the DRAM-fills-per-thousand-requests threshold
	// below which EMCC turns off for the next window.
	MinDRAMPerK int64

	// OnTransition, when non-nil, is called whenever a window boundary
	// flips the enabled state (observability hook: the timing simulator
	// emits a trace event so EMCC on/off phases are visible on the
	// timeline).
	OnTransition func(enabled bool)

	requests int64
	dramHits int64
	enabled  bool
}

// NewIntensityMonitor builds a monitor with the paper's framing: an
// application with fewer than one memory access per thousand instructions
// is not memory-intensive. Expressed per L2 request, the default threshold
// is 10 DRAM fills per thousand L2 requests over 8k-request windows (small
// enough to react within a phase, large enough to be stable).
func NewIntensityMonitor() *IntensityMonitor {
	return &IntensityMonitor{Window: 8 << 10, MinDRAMPerK: 10, enabled: true}
}

// Enabled reports whether EMCC is currently on.
func (m *IntensityMonitor) Enabled() bool { return m.enabled }

// OnRequest records one L2 request (hit or miss), rolling the window.
func (m *IntensityMonitor) OnRequest() {
	m.requests++
	if m.requests >= m.Window {
		perK := m.dramHits * 1000 / m.requests
		was := m.enabled
		m.enabled = perK >= m.MinDRAMPerK
		m.requests, m.dramHits = 0, 0
		if m.enabled != was && m.OnTransition != nil {
			m.OnTransition(m.enabled)
		}
	}
}

// OnDRAMFill records one L2 miss that DRAM (not the LLC) satisfied.
func (m *IntensityMonitor) OnDRAMFill() { m.dramHits++ }
