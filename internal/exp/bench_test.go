package exp

import "testing"

// BenchmarkWideSchedSeq drives the full wide workload (48 legs, 12
// merges, 144 epochs) — the profiling entry point for pipeline hot-path work. ns/op includes deployment
// construction; the pipeline-only wall (what BENCH_batch.json and
// EXPERIMENTS.md report) is exposed as the ns/pipeline metric.
func BenchmarkWideSchedSeq(b *testing.B) {
	cfg := DefaultSchedConfig()
	var pipeline int64
	for i := 0; i < b.N; i++ {
		_, _, wall, err := RunWideSched(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pipeline += wall.Nanoseconds()
	}
	b.ReportMetric(float64(pipeline)/float64(b.N), "ns/pipeline")
}
