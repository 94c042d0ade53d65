package emcc

import "testing"

func TestIntensityMonitorStaysOnForIntenseApps(t *testing.T) {
	m := NewIntensityMonitor()
	m.Window = 1000
	for i := 0; i < 5000; i++ {
		m.OnRequest()
		if i%20 == 0 { // 50 DRAM fills per thousand requests
			m.OnDRAMFill()
		}
	}
	if !m.Enabled() {
		t.Fatal("EMCC turned off for a memory-intensive app")
	}
}

func TestIntensityMonitorTurnsOffForCacheResidentApps(t *testing.T) {
	m := NewIntensityMonitor()
	m.Window = 1000
	for i := 0; i < 1000; i++ {
		m.OnRequest() // zero DRAM fills
	}
	if m.Enabled() {
		t.Fatal("EMCC stayed on for a cache-resident app")
	}
}

func TestIntensityMonitorRecovers(t *testing.T) {
	m := NewIntensityMonitor()
	m.Window = 1000
	for i := 0; i < 1000; i++ {
		m.OnRequest()
	}
	if m.Enabled() {
		t.Fatal("should be off after an idle window")
	}
	// A memory-intensive phase turns it back on at the window boundary.
	for i := 0; i < 1000; i++ {
		m.OnRequest()
		m.OnDRAMFill()
	}
	if !m.Enabled() {
		t.Fatal("EMCC did not re-enable after an intense window")
	}
}
