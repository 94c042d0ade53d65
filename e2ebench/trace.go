package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around a public entry point: the simulator itself carries no
// instrumentation for this. Times are Unix nanoseconds, so spans recorded in
// a unit's child process line up with the parent's on one timeline.
type span struct {
	ID     int    `json:"id,omitempty"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`             // <layer>.<call>
	Unit   string `json:"unit,omitempty"`   // the unit run this span belongs to
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory until the run ends. A recorder that is off
// only makes the calls, so untraced runs pay nothing for it.
type recorder struct {
	on    bool
	spans []span
}

func (r *recorder) time(name string, fn func()) {
	if !r.on {
		fn()
		return
	}
	start := time.Now().UnixNano()
	fn()
	r.spans = append(r.spans, span{Name: name, Start: start, End: time.Now().UnixNano()})
}

// selfSeconds returns, for each span, its duration minus the part of its
// interval that its child spans cover.
func selfSeconds(spans []span) []float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func spanTotals(spans []span) map[string]spanTotal {
	self := selfSeconds(spans)
	out := map[string]spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalS += s.seconds()
		t.SelfS += self[i]
		out[s.Name] = t
	}
	return out
}

// traceEvent is one complete ("X") event of the Chrome trace_event format,
// which Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs from the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes the spans as a Chrome trace_event JSON file.
func writeChromeTrace(path string, spans []span) error {
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		events = append(events, traceEvent{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"unit": s.Unit, "id": s.ID, "parent": s.Parent},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
