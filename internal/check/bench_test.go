package check

import "testing"

// BenchmarkCheckRun prices the verification harness: one full Run at 2 k
// references per replay, seed 12 and Parallel 1, so the units run one at
// a time on the calling goroutine.
func BenchmarkCheckRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rs := Run(Options{Seed: 12, Refs: 2_000, Parallel: 1}); Failed(rs) != 0 {
			b.Fatalf("%d checks failed:\n%s", Failed(rs), render(rs))
		}
	}
}
