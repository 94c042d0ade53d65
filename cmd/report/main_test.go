package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/figures"
	"repro/internal/paper"
	"repro/internal/workload"
)

// verdictRows renders writeVerdicts over tables and returns its rows keyed
// by "figure | paper claim".
func verdictRows(tables []*figures.Table) map[string]string {
	var b bytes.Buffer
	writeVerdicts(&b, tables)
	rows := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		cols := strings.Split(line, " | ")
		if len(cols) == 5 && cols[0] != "| figure" {
			rows[strings.TrimPrefix(cols[0], "| ")+" | "+cols[1]] = line
		}
	}
	return rows
}

// TestWriteVerdictsGradesClaims: each row's measured value is the claim
// its figure's table records, printed in the expectation's unit and
// graded against the paper's value, tolerance and direction.
func TestWriteVerdictsGradesClaims(t *testing.T) {
	rows := verdictRows([]*figures.Table{
		{ID: "fig11", Claims: map[string]float64{"mean-useless": 3.5}},
		{ID: "fig12", Claims: map[string]float64{"mean-emcc": 78.5}},
		{ID: "fig16", Claims: map[string]float64{"mean-gain": 1.3, "canneal-gain": -0.4}},
		{ID: "fig22", Claims: map[string]float64{"write-minus-read-1ch": 317.2}},
	})
	for key, want := range map[string]string{
		"fig11 | mean useless counter accesses / L2 misses":      "| 3.2% | 3.5% | MATCH |",
		"fig12 | EMCC total counter accesses to LLC / L2 misses": "| 35.6% | 78.5% | DEVIATES |",
		"fig16 | mean EMCC improvement over Morphable":           "| 7.0% | 1.3% | shape-ok |",
		"fig16 | canneal EMCC improvement (maximum)":             "| 12.5% | -0.4% | DEVIATES |",
		"fig22 | writes queue longer than reads":                 "| 0.0ns | 317.2ns | shape-ok |",
	} {
		if got := rows[key]; !strings.HasSuffix(got, want) {
			t.Errorf("%s: row %q, want it to end %q", key, got, want)
		}
	}
}

// TestMeasureMissingTable: a claim whose figure was not regenerated, or
// whose table does not record it, grades no-data.
func TestMeasureMissingTable(t *testing.T) {
	rows := verdictRows([]*figures.Table{
		{ID: "fig16", Claims: map[string]float64{"mean-gain": 1.3}},
	})
	for _, key := range []string{
		"fig11 | mean useless counter accesses / L2 misses",
		"fig16 | canneal EMCC improvement (maximum)",
	} {
		if got := rows[key]; !strings.HasSuffix(got, "| — | no-data |") {
			t.Errorf("%s: row %q, want no-data", key, got)
		}
	}
	if got := len(rows); got != len(paper.Expectations()) {
		t.Errorf("%d verdict rows for %d expectations", got, len(paper.Expectations()))
	}
}

// TestEveryExpectationHasAMeasurePath: every expectation names a figure
// the harness regenerates and a claim key. That the figure's builder
// records the claim, at the value its table prints, is
// internal/figures' TestClaimsMatchPrintedValues; the TestMeasureFig*
// and TestMeasureNoteNumber tests below follow the derived claims through
// to the verdict row.
func TestEveryExpectationHasAMeasurePath(t *testing.T) {
	ids := map[string]bool{}
	for _, id := range figures.IDs() {
		ids[id] = true
	}
	for _, e := range paper.Expectations() {
		if !ids[e.Figure] || e.Claim == "" {
			t.Errorf("%s / %s: figure regenerated %v, claim key %q", e.Figure, e.Metric, ids[e.Figure], e.Claim)
		}
	}
}

// microHarness regenerates simulation-backed figures at unit-test size.
func microHarness() *figures.Harness {
	h := figures.NewHarness(true)
	sc := workload.TestScale()
	h.ScaleOverride = &sc
	h.RefsOverride = 8_000
	return h
}

// measuredCell returns the measured column of the verdict row that
// writeVerdicts prints for tab's claim key.
func measuredCell(t *testing.T, tab *figures.Table, claim string) string {
	t.Helper()
	for _, e := range paper.Expectations() {
		if e.Figure == tab.ID && e.Claim == claim {
			row := verdictRows([]*figures.Table{tab})[e.Figure+" | "+e.Metric]
			cols := strings.Split(row, " | ")
			if len(cols) != 5 {
				t.Fatalf("%s/%s: verdict row %q", tab.ID, claim, row)
			}
			return cols[3]
		}
	}
	t.Fatalf("no expectation for %s/%s", tab.ID, claim)
	return ""
}

// printedValue parses the number a printed cell or note starts with
// ("3.5%", "19.0 ns (paper: 19 ns)").
func printedValue(t *testing.T, s string) float64 {
	t.Helper()
	f := strings.Fields(s)
	if len(f) == 0 {
		t.Fatalf("no number printed in %q", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64)
	if err != nil {
		t.Fatalf("no number printed in %q: %v", s, err)
	}
	return v
}

// printedCell reads the number in tab's row label under column header.
func printedCell(t *testing.T, tab *figures.Table, label, header string) float64 {
	t.Helper()
	for col, h := range tab.Header {
		for _, r := range tab.Rows {
			if h == header && r[0] == label {
				return printedValue(t, r[col])
			}
		}
	}
	t.Fatalf("%s: no cell %s / %s", tab.ID, label, header)
	return 0
}

// TestMeasureNoteNumber: the report's measured fig 5 overhead is the
// number fig 5's note prints.
func TestMeasureNoteNumber(t *testing.T) {
	tab, _ := figures.NewHarness(true).ByID("fig5")
	const prefix = "overhead of caching counters in LLC:"
	for _, n := range tab.Notes {
		if rest, ok := strings.CutPrefix(n, prefix); ok {
			want := fmt.Sprintf("%.1fns", printedValue(t, rest))
			if got := measuredCell(t, tab, "llc-overhead"); got != want {
				t.Fatalf("measured %q, note %q", got, n)
			}
			return
		}
	}
	t.Fatalf("fig5 prints no %q note: %q", prefix, tab.Notes)
}

// TestMeasureFig17MeanSaving: the report's measured fig 17 saving is the
// mean over the printed rows of morphable minus emcc.
func TestMeasureFig17MeanSaving(t *testing.T) {
	tab := microHarness().Fig17()
	var sum float64
	for _, r := range tab.Rows {
		sum += printedCell(t, tab, r[0], "morphable") - printedCell(t, tab, r[0], "emcc")
	}
	want := fmt.Sprintf("%.1fns", sum/float64(len(tab.Rows)))
	if got := measuredCell(t, tab, "mean-saving"); got != want {
		t.Fatalf("measured %q, printed rows give %q", got, want)
	}
}

// TestMeasureFig21Delta: the report's measured fig 21 rise is the printed
// 8-channel mean minus the printed 1-channel mean.
func TestMeasureFig21Delta(t *testing.T) {
	tab := microHarness().Fig21()
	d := printedCell(t, tab, "mean", "8-channel") - printedCell(t, tab, "mean", "1-channel")
	want := fmt.Sprintf("%.1f%%", d)
	if got := measuredCell(t, tab, "gain-rise-8ch"); got != want {
		t.Fatalf("measured %q, printed means give %q", got, want)
	}
}

// TestMeasureFig22WriteMinusRead: the report's measured fig 22 delay is
// the printed 1-channel data-write minus data-read.
func TestMeasureFig22WriteMinusRead(t *testing.T) {
	tab := microHarness().Fig22()
	d := printedCell(t, tab, "1", "data-write") - printedCell(t, tab, "1", "data-read")
	want := fmt.Sprintf("%.1fns", d)
	if got := measuredCell(t, tab, "write-minus-read-1ch"); got != want {
		t.Fatalf("measured %q, printed row gives %q", got, want)
	}
}
