// Package paper records the numbers the paper reports for every
// reproduced table and figure, as machine-readable expectations. The
// report generator (cmd/report) compares regenerated results against them
// and classifies each experiment as matching in magnitude, matching in
// shape, or deviating — turning EXPERIMENTS.md into a regression check.
package paper

// Expectation is one quantitative claim from the paper about a figure.
type Expectation struct {
	Figure string // "fig16"
	// Claim keys the number the figure's table records for this claim
	// (figures.Table.Claims), e.g. "mean-gain".
	Claim  string
	Metric string // short label, e.g. "mean EMCC gain over Morphable"
	// Value is the paper's reported number (percent values as percent,
	// nanoseconds as ns).
	Value float64
	Unit  string
	// Tolerance is the band (same unit) within which the reproduction
	// counts as matching in magnitude; outside it, direction/shape
	// checks still apply.
	Tolerance float64
	// Direction, when non-empty, is a shape claim that must hold even if
	// the magnitude differs: "higher-than-zero", "increases", "decreases".
	Direction string
	// Source quotes where the paper states it.
	Source string
}

// Expectations lists every claim checked by the report.
func Expectations() []Expectation {
	return []Expectation{
		{
			Figure: "fig2", Claim: "mean-total-wo", Metric: "mean total traffic overhead w/o counters in LLC",
			Value: 105, Unit: "%", Tolerance: 40,
			Source: "Sec. III: 'caching counters in LLC reduces total DRAM traffic overhead from 105% down to 59%'",
		},
		{
			Figure: "fig2", Claim: "mean-total-w", Metric: "mean total traffic overhead w/ counters in LLC",
			Value: 59, Unit: "%", Tolerance: 30, Direction: "decreases",
			Source: "Sec. III, Fig 2",
		},
		{
			Figure: "fig3", Claim: "mean-hit-latency", Metric: "mean LLC hit latency",
			Value: 23, Unit: "ns", Tolerance: 1.5,
			Source: "Sec. III-A: 'It is 23ns, on average'",
		},
		{
			Figure: "fig5", Claim: "llc-overhead", Metric: "added latency of caching counters in LLC (counter miss)",
			Value: 19, Unit: "ns", Tolerance: 2,
			Source: "Sec. III-B: 'increases Secure Memory Access Latency by 19ns Direct LLC Latency'",
		},
		{
			Figure: "fig6", Claim: "mean-mc-hit", Metric: "mean MC counter-cache hit rate",
			Value: 65, Unit: "%", Tolerance: 15,
			Source: "Fig 6: 65% MC hit / 15% LLC hit / 19% LLC miss",
		},
		{
			Figure: "fig6", Claim: "mean-llc-miss", Metric: "mean LLC counter miss rate",
			Value: 19, Unit: "%", Tolerance: 10, Direction: "higher-than-zero",
			Source: "Sec. III-B: '19% of normal block misses in LLC also suffer from counter misses'",
		},
		{
			Figure: "fig7", Claim: "mean-llc-miss", Metric: "mean LLC counter miss rate at 12MB/core",
			Value: 14, Unit: "%", Tolerance: 10, Direction: "decreases",
			Source: "Sec. III-B: 'only reduces from 19% down to 14%'",
		},
		{
			Figure: "fig8", Claim: "llc-hit-overhead", Metric: "added latency of counter hit in LLC vs MC",
			Value: 8, Unit: "ns", Tolerance: 2,
			Source: "Fig 8: 'Overhead (8ns)'",
		},
		{
			Figure: "fig10", Claim: "emcc-earlier", Metric: "EMCC earlier response under counter miss in LLC",
			Value: 16, Unit: "ns", Tolerance: 6, Direction: "higher-than-zero",
			Source: "Fig 10: 'EMCC can respond ... 16ns earlier than the baseline'",
		},
		{
			Figure: "fig11", Claim: "mean-useless", Metric: "mean useless counter accesses / L2 misses",
			Value: 3.2, Unit: "%", Tolerance: 5,
			Source: "Sec. IV-C: 'It is only 3.2% on average'",
		},
		{
			Figure: "fig12", Claim: "mean-emcc", Metric: "EMCC total counter accesses to LLC / L2 misses",
			Value: 35.6, Unit: "%", Tolerance: 15,
			Source: "Sec. IV-C: 'it is 35.6%, on average'",
		},
		{
			Figure: "fig14", Claim: "emcc-earlier", Metric: "EMCC earlier response under XPT",
			Value: 22, Unit: "ns", Tolerance: 6, Direction: "higher-than-zero",
			Source: "Fig 14: 'EMCC can respond ... 22ns earlier'",
		},
		{
			Figure: "fig16", Claim: "mean-gain", Metric: "mean EMCC improvement over Morphable",
			Value: 7, Unit: "%", Tolerance: 5, Direction: "higher-than-zero",
			Source: "Abstract/Sec. VI: 'improves performance ... by 7%, on average'",
		},
		{
			Figure: "fig16", Claim: "canneal-gain", Metric: "canneal EMCC improvement (maximum)",
			Value: 12.5, Unit: "%", Tolerance: 10, Direction: "higher-than-zero",
			Source: "Sec. VI: 'Canneal gets the most benefit - 12.5%'",
		},
		{
			Figure: "fig17", Claim: "mean-saving", Metric: "mean L2 miss latency saving of EMCC",
			Value: 5, Unit: "ns", Tolerance: 4, Direction: "higher-than-zero",
			Source: "Sec. VI: 'EMCC saves, on average, 5ns on L2 data miss latency'",
		},
		{
			Figure: "fig18", Claim: "mean-gain-25ns", Metric: "mean improvement at 25ns AES",
			Value: 9, Unit: "%", Tolerance: 7, Direction: "increases",
			Source: "Sec. VI-A: 'increases to 9% when AES latency increases to 25ns'",
		},
		{
			Figure: "fig19", Claim: "mean-at-l2-50pct", Metric: "mean DRAM reads decrypted at L2 (50% AES moved)",
			Value: 76.3, Unit: "%", Tolerance: 25,
			Source: "Sec. VI-B: 'decrypts and verifies 76.3% of DRAM data accesses at L2'",
		},
		{
			Figure: "fig20", Claim: "gain-drop-128k-512k", Metric: "benefit change from 128KB to 512KB counter cache",
			Value: 1, Unit: "%", Tolerance: 2, Direction: "decreases",
			Source: "Sec. VI-C: 'the decrease in benefit is less than 1%'",
		},
		{
			Figure: "fig21", Claim: "gain-rise-8ch", Metric: "benefit under 8 channels vs 1",
			Value: 0, Unit: "%", Tolerance: 0, Direction: "increases",
			Source: "Sec. VI-D: 'the performance benefit ... increases under eight channels'",
		},
		{
			Figure: "fig22", Claim: "write-minus-read-1ch", Metric: "writes queue longer than reads",
			Value: 0, Unit: "ns", Tolerance: 0, Direction: "higher-than-zero",
			Source: "Fig 22: 'writebacks ... experience higher queuing delay than reads'",
		},
		{
			Figure: "fig23", Claim: "mean-invalidated", Metric: "mean counter invalidations / insertions",
			Value: 1.7, Unit: "%", Tolerance: 8,
			Source: "Sec. VI-E: 'only 1.7% of counter blocks inserted into L2 are invalidated'",
		},
		{
			Figure: "fig24", Claim: "mean-useless", Metric: "mean useless counter accesses (regular set)",
			Value: 1, Unit: "%", Tolerance: 3,
			Source: "Sec. VI-F: 'only 1% useless counter accesses in LLC, on average'",
		},
	}
}
