package main

import (
	"fmt"
	"math"
	"sort"
)

// summary is the one statistic the benchmark reports for any sampled
// quantity: its median, its quartiles and the sample count. The run report,
// the artifact and the comparator all use it, so a spread read in one place
// means the same thing in the others.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and the quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles (its default), so the
// spreads this program prints match the ones an external checker computes
// from the same values. A single sample is its own median and quartiles.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: len(d)}
	if len(d) == 1 {
		s.Median, s.Q1, s.Q3 = d[0], d[0], d[0]
		return s
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	s.Q1, s.Median, s.Q3 = q(1), q(2), q(3)
	return s
}

// spread is the interquartile distance as a share of the median: the noise
// band a bound is compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdicts of a comparison of one (metric, workload) pair.
const (
	improved   = "improved"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges the new samples of one metric against the old ones.
//
//   - When either side's interquartile spread exceeds the bound, the two
//     medians cannot be told apart within it: the pair is unresolved, unless
//     every new sample is better than every old one.
//   - Otherwise the pair is worse when the new median is worse than the old
//     by more than bound (a share of the old median), and improved when it is
//     better by more than the old side's own interquartile distance.
//   - Anything else is the same.
func verdict(old, cur []float64, lowerIsBetter bool, bound float64) string {
	o, c := summarize(old), summarize(cur)
	if o.N == 0 || c.N == 0 {
		return unresolved
	}
	// gain > 0 means the new value is better.
	gain := func(from, to float64) float64 {
		if lowerIsBetter {
			return from - to
		}
		return to - from
	}
	if o.spread() > bound || c.spread() > bound {
		worstNew, bestOld := cur[0], old[0]
		for _, v := range cur {
			if gain(worstNew, v) < 0 {
				worstNew = v
			}
		}
		for _, v := range old {
			if gain(bestOld, v) > 0 {
				bestOld = v
			}
		}
		if gain(bestOld, worstNew) > 0 {
			return improved
		}
		return unresolved
	}
	g := gain(o.Median, c.Median)
	switch {
	case -g > bound*math.Abs(o.Median):
		return worse
	case g > o.Q3-o.Q1 && g > 0:
		return improved
	}
	return same
}

// fmtSummary renders a summary for the human-readable report.
func fmtSummary(s summary) string {
	return fmt.Sprintf("median %.6g  q1 %.6g  q3 %.6g  n %d  spread %.1f%%",
		s.Median, s.Q1, s.Q3, s.N, 100*s.spread())
}
