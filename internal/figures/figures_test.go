package figures

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/paper"
	"repro/internal/run"
	"repro/internal/workload"
)

// Only the analytic figures run in unit tests; the simulation-backed ones
// are exercised by the benchmark harness (bench_test.go at the repo root).

func TestAnalyticFigureIDsResolve(t *testing.T) {
	h := NewHarness(true)
	for _, id := range []string{"table1", "fig3", "fig4", "fig5", "fig8", "fig10", "fig13", "fig14"} {
		tab, ok := h.ByID(id)
		if !ok {
			t.Fatalf("%s did not resolve", id)
		}
		if tab.ID != id || len(tab.Rows) == 0 {
			t.Fatalf("%s produced empty table", id)
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		if !strings.Contains(buf.String(), id) {
			t.Fatalf("%s rendering lacks its id", id)
		}
	}
}

func TestUnknownIDRejected(t *testing.T) {
	h := NewHarness(true)
	if _, ok := h.ByID("fig99"); ok {
		t.Fatal("unknown figure resolved")
	}
}

func TestIDsCoverEveryEvaluationFigure(t *testing.T) {
	ids := IDs()
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	// Figures 2..24 except 9 (architecture diagram, nothing to measure).
	for i := 2; i <= 24; i++ {
		if i == 9 {
			continue
		}
		if !want["fig"+strconv.Itoa(i)] {
			t.Errorf("fig%d missing from IDs()", i)
		}
	}
	if !want["table1"] {
		t.Error("table1 missing")
	}
}

// TestFig5OverheadMatchesPaper: the analytic timeline must reproduce the
// 19 ns Direct-LLC-Latency overhead the paper derives.
func TestFig5OverheadMatchesPaper(t *testing.T) {
	tab := NewHarness(true).Fig5()
	if v, ok := tab.Claims["llc-overhead"]; !ok || v != 19 {
		t.Fatalf("overhead = %v (recorded %v), want 19.0 ns; notes %v", v, ok, tab.Notes)
	}
}

// TestFig3MeanNear23 checks the NoC calibration end to end.
func TestFig3MeanNear23(t *testing.T) {
	mean, ok := NewHarness(true).Fig3().Claims["mean-hit-latency"]
	if !ok {
		t.Fatal("fig3 records no mean")
	}
	if mean < 21 || mean > 25 {
		t.Fatalf("LLC hit mean = %v ns, want ~23", mean)
	}
}

// TestTimelineFiguresFavourEMCC: Figs 10, 13 and 14 must all show EMCC
// responding earlier than the baseline.
func TestTimelineFiguresFavourEMCC(t *testing.T) {
	h := NewHarness(true)
	for _, id := range []string{"fig10", "fig13", "fig14"} {
		tab, _ := h.ByID(id)
		if v, ok := tab.Claims["emcc-earlier"]; !ok || v <= 0 {
			t.Fatalf("%s does not show an EMCC win: %v", id, tab.Notes)
		}
	}
}

// microHarness runs simulation-backed figures at miniature scale so the
// figure plumbing (metric extraction, table assembly) is unit-testable.
func microHarness() *Harness {
	h := NewHarness(true)
	sc := workload.TestScale()
	h.ScaleOverride = &sc
	h.RefsOverride = 120_000
	return h
}

func TestFig16StructureAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tab := microHarness().Fig16()
	if len(tab.Rows) != 12 { // 11 benchmarks + mean
		t.Fatalf("fig16 rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != 5 {
			t.Fatalf("fig16 row %v has %d cells", r, len(r))
		}
		for _, cell := range r[1:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("fig16 cell %q not a percentage", cell)
			}
		}
	}
}

func TestDesign5StructureAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tab := microHarness().Design5()
	if len(tab.Rows) != 12 { // 11 benchmarks + mean
		t.Fatalf("design5 rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != 6 {
			t.Fatalf("design5 row %v has %d cells", r, len(r))
		}
		for _, cell := range r[1:] {
			if !strings.HasSuffix(cell, "%") {
				t.Fatalf("design5 cell %q not a percentage", cell)
			}
		}
	}
	// Every secure design must cost something: normalised performance
	// strictly below 100% on the mean row (determinism makes this exact).
	mean := tab.Rows[len(tab.Rows)-1]
	for i, cell := range mean[1:] {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("mean cell %q: %v", cell, err)
		}
		if v >= 100 {
			t.Fatalf("%s mean normalised perf %.1f%% not below non-secure", tab.Header[i+1], v)
		}
	}
}

func TestFig11And23ShareRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	h := microHarness()
	h.Fig11()
	n := h.Report().Executed
	h.Fig23() // must reuse the same emcc functional runs
	if got := h.Report().Executed; got != n {
		t.Fatalf("fig23 re-ran functional sims: %d -> %d", n, got)
	}
}

func TestFig22Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tab := microHarness().Fig22()
	if len(tab.Rows) != 2 {
		t.Fatalf("fig22 rows = %d, want 2 (1 and 8 channels)", len(tab.Rows))
	}
}

// TestByIDAndIDsAgree pins the registry: every enumerated id resolves to a
// table carrying that id, with no duplicates and no unreachable specs.
func TestByIDAndIDsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ids := IDs()
	if len(ids) != len(specs) {
		t.Fatalf("IDs() lists %d ids, registry has %d specs", len(ids), len(specs))
	}
	seen := map[string]bool{}
	h := microHarness()
	h.RefsOverride = 8_000 // every figure runs; keep each sim tiny
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
		tab, ok := h.ByID(id)
		if !ok {
			t.Errorf("id %q enumerated but does not resolve", id)
			continue
		}
		if tab.ID != id {
			t.Errorf("ByID(%q) produced table %q", id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("id %q produced an empty table", id)
		}
	}
	for _, s := range specs {
		if !seen[s.id] {
			t.Errorf("spec %q not enumerated by IDs()", s.id)
		}
	}
}

// printedNumber parses the number a printed cell or note starts with
// ("3.5%", "23.0 ns", "16.0 ns earlier"); where names it in a failure.
func printedNumber(t *testing.T, tab *Table, where, s string) float64 {
	t.Helper()
	f := strings.Fields(s)
	if len(f) == 0 {
		t.Fatalf("%s: nothing printed at %s", tab.ID, where)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64)
	if err != nil {
		t.Fatalf("%s: no number at %s: %v", tab.ID, where, err)
	}
	return v
}

// cellValue reads the number in row label's cell under column header.
func cellValue(t *testing.T, tab *Table, label, header string) float64 {
	t.Helper()
	where := label + " / " + header
	for col, h := range tab.Header {
		for _, r := range tab.Rows {
			if h == header && r[0] == label {
				return printedNumber(t, tab, where, r[col])
			}
		}
	}
	return printedNumber(t, tab, where, "")
}

// noteValue reads the number that follows prefix in one of tab's notes.
func noteValue(t *testing.T, tab *Table, prefix string) float64 {
	t.Helper()
	for _, n := range tab.Notes {
		if rest, ok := strings.CutPrefix(n, prefix); ok {
			return printedNumber(t, tab, prefix, rest)
		}
	}
	return printedNumber(t, tab, prefix, "")
}

// claimReaders maps each paper expectation ("figure/claim") to the
// reading of its number off the printed table: a cell by row label and
// column header, a note by its prefix, or a difference of cells.
func claimReaders(t *testing.T) map[string]func(*Table) float64 {
	at := func(label, header string) func(*Table) float64 {
		return func(tab *Table) float64 { return cellValue(t, tab, label, header) }
	}
	note := func(prefix string) func(*Table) float64 {
		return func(tab *Table) float64 { return noteValue(t, tab, prefix) }
	}
	minus := func(a, b func(*Table) float64) func(*Table) float64 {
		return func(tab *Table) float64 { return a(tab) - b(tab) }
	}
	return map[string]func(*Table) float64{
		"fig2/mean-total-wo":         at("mean", "w/o-total"),
		"fig2/mean-total-w":          at("mean", "w-total"),
		"fig3/mean-hit-latency":      at("mean", "share"),
		"fig5/llc-overhead":          note("overhead of caching counters in LLC:"),
		"fig6/mean-mc-hit":           at("mean", "mc-hit"),
		"fig6/mean-llc-miss":         at("mean", "llc-miss"),
		"fig7/mean-llc-miss":         at("mean", "llc-miss"),
		"fig8/llc-hit-overhead":      note("overhead of counter hit in LLC:"),
		"fig10/emcc-earlier":         note("EMCC responds"),
		"fig11/mean-useless":         at("mean", "useless"),
		"fig12/mean-emcc":            at("mean", "emcc"),
		"fig14/emcc-earlier":         note("EMCC responds"),
		"fig16/mean-gain":            at("mean", "emcc-vs-morphable"),
		"fig16/canneal-gain":         at("canneal", "emcc-vs-morphable"),
		"fig18/mean-gain-25ns":       at("mean", "25ns"),
		"fig19/mean-at-l2-50pct":     at("mean", "50%"),
		"fig20/gain-drop-128k-512k":  minus(at("mean", "128KB"), at("mean", "512KB")),
		"fig21/gain-rise-8ch":        minus(at("mean", "8-channel"), at("mean", "1-channel")),
		"fig22/write-minus-read-1ch": minus(at("1", "data-write"), at("1", "data-read")),
		"fig23/mean-invalidated":     at("mean", "invalidated"),
		"fig24/mean-useless":         at("mean", "useless"),
		"fig17/mean-saving": func(tab *Table) float64 {
			var sum float64
			for _, r := range tab.Rows {
				sum += cellValue(t, tab, r[0], "morphable") - cellValue(t, tab, r[0], "emcc")
			}
			return sum / float64(len(tab.Rows))
		},
	}
}

// checkClaims builds each expectation's figure on h, for the figures in
// figs (every figure when figs is nil), and checks that the table records
// the claim and that the claim equals its printed reading. With nonzero
// set it also requires the claim to be nonzero. It returns how many
// claims it checked.
func checkClaims(t *testing.T, h *Harness, figs map[string]bool, nonzero bool) int {
	t.Helper()
	readers := claimReaders(t)
	n := 0
	for _, e := range paper.Expectations() {
		if figs != nil && !figs[e.Figure] {
			continue
		}
		n++
		key := e.Figure + "/" + e.Claim
		tab, ok := h.ByID(e.Figure)
		if !ok {
			t.Errorf("%s: figure does not resolve", key)
			continue
		}
		got, ok := tab.Claims[e.Claim]
		if !ok {
			t.Errorf("%s: table records no such claim (has %v)", key, tab.Claims)
			continue
		}
		read := readers[key]
		if read == nil {
			t.Errorf("%s: no printed reading for this claim in the test", key)
			continue
		}
		if w := read(tab); got != w {
			t.Errorf("%s: claim %v, table prints %v", key, got, w)
		}
		if nonzero && got == 0 {
			t.Errorf("%s: claim reads 0, so it cannot be told from an empty column", key)
		}
	}
	return n
}

// TestClaimsMatchPrintedValues: every paper expectation's claim is
// recorded by its figure's builder and equals the number its table
// prints, or for a difference, the difference of the printed numbers;
// so cmd/report grades exactly what a reader of the table sees.
func TestClaimsMatchPrintedValues(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	h := microHarness()
	h.RefsOverride = 8_000 // TestByIDAndIDsAgree's size
	checkClaims(t, h, nil, false)
}

// TestClaimsNonzeroAtLargerScale builds the four figures whose claims read
// 0 at the micro scale, where every workload fits the caches — fig 11's
// and fig 24's useless counter accesses, fig 20's counter-cache-size drop
// and fig 23's invalidations — at a scale where none does: 2^15 graph
// vertices, 32 MB irregular and 8 MB regular footprints per core, 120 k
// references. Each claim must be nonzero and equal its printed reading,
// so a builder that recorded an empty column fails here.
func TestClaimsNonzeroAtLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	h := NewHarness(true)
	sc := workload.TestScale()
	sc.GraphVertices = 1 << 15
	sc.IrregularBytes = 32 << 20
	sc.RegularBytes = 8 << 20
	h.ScaleOverride = &sc
	h.RefsOverride = 120_000
	figs := map[string]bool{"fig11": true, "fig20": true, "fig23": true, "fig24": true}
	if n := checkClaims(t, h, figs, true); n != len(figs) {
		t.Fatalf("checked %d claims, want one for each of %d figures", n, len(figs))
	}
}

// renderAll builds the given figures on h and renders them to one byte
// stream.
func renderAll(h *Harness, ids []string) string {
	var buf bytes.Buffer
	for _, id := range ids {
		tab, ok := h.ByID(id)
		if !ok {
			panic("unknown id " + id)
		}
		tab.Fprint(&buf)
	}
	return buf.String()
}

// TestParallelTablesMatchSerial pins the acceptance claim: -j N tables are
// byte-identical to -j 1.
func TestParallelTablesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	ids := []string{"fig12", "fig16", "fig22"}
	serial := microHarness()
	serial.Workers = 1
	parallel := microHarness()
	parallel.Workers = 8
	a, b := renderAll(serial, ids), renderAll(parallel, ids)
	if a != b {
		t.Fatalf("serial and parallel tables differ:\n--- j=1\n%s\n--- j=8\n%s", a, b)
	}
	if serial.Report().Executed == 0 || serial.Report().Executed != parallel.Report().Executed {
		t.Fatalf("executed counts differ: %d vs %d", serial.Report().Executed, parallel.Report().Executed)
	}
}

// TestCacheSecondRunExecutesNothing pins the acceptance claim: a second
// cached run re-simulates nothing and reproduces the tables byte for byte.
func TestCacheSecondRunExecutesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	ids := []string{"fig11", "fig16"}

	cold, err := run.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1 := microHarness()
	h1.Cache = cold
	first := renderAll(h1, ids)
	if h1.Report().Executed == 0 {
		t.Fatal("cold run executed nothing")
	}

	warm, err := run.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2 := microHarness()
	h2.Cache = warm
	h2.Workers = 4
	second := renderAll(h2, ids)
	if n := h2.Report().Executed; n != 0 {
		t.Fatalf("cached run executed %d simulations, want 0", n)
	}
	if h2.Report().Cached == 0 {
		t.Fatal("cached run reports no cache hits")
	}
	if first != second {
		t.Fatalf("cached tables differ from cold tables:\n--- cold\n%s\n--- cached\n%s", first, second)
	}
}

// TestTailLatencyStructureAtMicroScale pins the percentile table's shape:
// every one of the five systems reports an end-to-end "request" row with
// monotone percentiles, plus at least one populated segment row.
func TestTailLatencyStructureAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	tab := microHarness().TailLatency()
	systems := map[string]struct{ request, segments int }{}
	for _, r := range tab.Rows {
		if len(r) != 7 {
			t.Fatalf("tails row %v has %d cells", r, len(r))
		}
		e := systems[r[0]]
		if r[1] == "request" {
			e.request++
			p50, _ := strconv.Atoi(r[3])
			p95, _ := strconv.Atoi(r[4])
			p99, _ := strconv.Atoi(r[5])
			max, _ := strconv.Atoi(r[6])
			if p50 > p95 || p95 > p99 || p99 > max || p50 <= 0 {
				t.Fatalf("%s request percentiles not monotone positive: %v", r[0], r)
			}
		} else {
			e.segments++
		}
		systems[r[0]] = e
	}
	for _, sys := range []string{"sc64", "morphable", "emcc", "bipbip", "insram"} {
		e := systems[sys]
		if e.request != 1 || e.segments == 0 {
			t.Fatalf("%s: %d request rows, %d segment rows", sys, e.request, e.segments)
		}
	}
}
