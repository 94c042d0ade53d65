package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// WriteSummary renders the per-segment attribution aggregated in st (by a
// tracer whose Stats sink was st) as a human-readable table: sample count,
// mean and max per segment, the decrypt overlap split, and the request-mix
// counters. It is the text half of a traced emccsim run's report.
func WriteSummary(w io.Writer, st *stats.Set) {
	fmt.Fprintf(w, "traced requests: %d (%d stores, %d MSHR-merged, %d LLC misses, %d offloaded)\n",
		st.Counter(stats.ObsReqTraced), st.Counter(stats.ObsReqStore),
		st.Counter(stats.ObsReqMerged), st.Counter(stats.ObsReqLLCMiss),
		st.Counter(stats.ObsReqOffload))
	lat := st.Accum(stats.ObsReqLatencyNS)
	if lat.Count > 0 {
		fmt.Fprintf(w, "request latency: mean %.1f ns  min %.1f  max %.1f\n", lat.Mean(), lat.Min, lat.Max)
	}
	if lh := st.Hist(stats.ObsReqLatencyHist); lh.Count() > 0 {
		fmt.Fprintf(w, "request latency: p50 %d ns  p95 %d  p99 %d\n",
			lh.Quantile(0.50), lh.Quantile(0.95), lh.Quantile(0.99))
	}

	fmt.Fprintf(w, "\n%-16s %10s %12s %8s %8s %8s %12s\n",
		"segment", "spans", "mean ns", "p50", "p95", "p99", "max ns")
	for _, seg := range Segments() {
		a := st.Accum(segKeys[seg]) //lint:dynamic-key per-segment family obs/seg/<name>-ns
		if a.Count == 0 {
			continue
		}
		h := st.Hist(segHistKeys[seg]) //lint:dynamic-key per-segment family obs/hist/seg/<name>-ns
		fmt.Fprintf(w, "%-16s %10d %12.2f %8d %8d %8d %12.2f\n",
			seg.String(), a.Count, a.Mean(),
			h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), a.Max)
	}

	exp := st.Accum(stats.ObsExposedDecryptNS)
	over := st.Accum(stats.ObsOverlappedDecryptNS)
	if exp.Count > 0 {
		fmt.Fprintf(w, "\ndecrypt overlap (per decrypted fill):\n")
		fmt.Fprintf(w, "  exposed    mean %8.2f ns  (n=%d)\n", exp.Mean(), exp.Count)
		fmt.Fprintf(w, "  overlapped mean %8.2f ns  (n=%d)\n", over.Mean(), over.Count)
		fmt.Fprintf(w, "  decrypt-at: l2=%d mc=%d   ctr-src: l2=%d llc=%d mc=%d\n",
			st.Counter(stats.ObsDecryptAtL2), st.Counter(stats.ObsDecryptAtMC),
			st.Counter(stats.ObsCtrSrcL2), st.Counter(stats.ObsCtrSrcLLC), st.Counter(stats.ObsCtrSrcMC))
	}
}

// WriteTopRequests renders the tracer's slowest-requests table with
// per-segment attribution, longest first.
func WriteTopRequests(w io.Writer, reqs []*Req) {
	if len(reqs) == 0 {
		return
	}
	fmt.Fprintf(w, "top %d slowest requests:\n", len(reqs))
	for i, r := range reqs {
		kind := "load"
		if r.Store {
			kind = "store"
		}
		flags := ""
		if r.LLCMiss {
			flags += " llc-miss"
		}
		if r.Offload {
			flags += " offload"
		}
		if r.Merged {
			flags += " merged"
		}
		fmt.Fprintf(w, "#%-3d %-5s core %d block 0x%010x  %9.1f ns%s\n",
			i+1, kind, r.Core, r.Block, r.Latency().Nanoseconds(), flags)
		for _, part := range segBreakdown(r) {
			fmt.Fprintf(w, "      %-16s %9.1f ns\n", part.name, part.ns)
		}
		if r.Decrypt != DecNone {
			fmt.Fprintf(w, "      decrypt@%-8s %9.1f ns exposed\n", r.Decrypt, r.Exposed.Nanoseconds())
		}
	}
}

type segPart struct {
	name string
	ns   float64
}

// segBreakdown collapses a request's spans into per-segment totals, in
// pipeline order, dropping empty segments.
func segBreakdown(r *Req) []segPart {
	var parts []segPart
	for _, seg := range Segments() {
		if d := r.SegTotal(seg); d > 0 {
			parts = append(parts, segPart{seg.String(), d.Nanoseconds()})
		}
	}
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].ns > parts[j].ns })
	return parts
}
