// Benchmarks regenerating the paper's evaluation — one testing.B per
// figure/table (see DESIGN.md's experiment index), plus ablations for the
// design decisions called out there. Fidelity metrics (error, yield,
// accuracy) are reported alongside timing via b.ReportMetric; run
//
//	go test -bench=. -benchmem
//
// and compare the custom columns against the paper targets in
// EXPERIMENTS.md. Benchmark iterations use shortened workloads so the
// whole suite completes in minutes; cmd/espbench runs the full-length
// versions.
package esp_test

import (
	"testing"
	"time"

	"esp/internal/exp"
	"esp/internal/stream"
)

// benchShelfConfig is a 120 s shelf run (the full experiment is 700 s).
func benchShelfConfig(mode exp.PipelineMode) exp.ShelfConfig {
	cfg := exp.DefaultShelfConfig()
	cfg.Duration = 120 * time.Second
	cfg.Mode = mode
	return cfg
}

// BenchmarkFig3ShelfPipeline runs the §4 shelf deployment through the
// full Smooth+Arbitrate pipeline (Figure 3(d)).
func BenchmarkFig3ShelfPipeline(b *testing.B) {
	var err float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunShelf(benchShelfConfig(exp.ModeSmoothArbitrate))
		if e != nil {
			b.Fatal(e)
		}
		err = res.AvgRelErr
	}
	b.ReportMetric(err, "avgRelErr")
}

// BenchmarkFig3Raw is the Figure 3(b) baseline: Query 1 on raw data.
func BenchmarkFig3Raw(b *testing.B) {
	var err, alerts float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunShelf(benchShelfConfig(exp.ModeRaw))
		if e != nil {
			b.Fatal(e)
		}
		err, alerts = res.AvgRelErr, res.AlertRate
	}
	b.ReportMetric(err, "avgRelErr")
	b.ReportMetric(alerts, "alerts/s")
}

// BenchmarkFig5Ablation runs all five pipeline configurations of Fig. 5.
func BenchmarkFig5Ablation(b *testing.B) {
	var worst, best float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunShelfAblation(benchShelfConfig(exp.ModeRaw))
		if e != nil {
			b.Fatal(e)
		}
		worst, best = res[0].AvgRelErr, res[len(res)-1].AvgRelErr
	}
	b.ReportMetric(worst, "rawErr")
	b.ReportMetric(best, "smoothArbErr")
}

// BenchmarkFig6GranuleSweep sweeps the temporal granule (three points of
// the Figure 6 curve; espbench runs the full sweep).
func BenchmarkFig6GranuleSweep(b *testing.B) {
	granules := []time.Duration{time.Second, 5 * time.Second, 20 * time.Second}
	var at5s float64
	for i := 0; i < b.N; i++ {
		points, e := exp.RunGranuleSweep(benchShelfConfig(exp.ModeSmoothArbitrate), granules)
		if e != nil {
			b.Fatal(e)
		}
		at5s = points[1].AvgRelErr
	}
	b.ReportMetric(at5s, "errAt5s")
}

// BenchmarkFig7Outlier runs the §5.1 fail-dirty detection over 30 hours.
func BenchmarkFig7Outlier(b *testing.B) {
	cfg := exp.DefaultOutlierConfig()
	cfg.Duration = 30 * time.Hour
	cfg.KeepTrace = false
	var within float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunOutlier(cfg)
		if e != nil {
			b.Fatal(e)
		}
		within = res.ESPWithin1C
	}
	b.ReportMetric(within, "espWithin1C")
}

// BenchmarkYieldRedwood runs the §5.2 epoch-yield ladder over one day.
func BenchmarkYieldRedwood(b *testing.B) {
	cfg := exp.DefaultRedwoodConfig()
	cfg.Duration = 24 * time.Hour
	var raw, smooth, merge float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunRedwoodYield(cfg)
		if e != nil {
			b.Fatal(e)
		}
		raw, smooth, merge = res.RawYield, res.SmoothYield, res.MergeYield
	}
	b.ReportMetric(raw, "rawYield")
	b.ReportMetric(smooth, "smoothYield")
	b.ReportMetric(merge, "mergeYield")
}

// BenchmarkSpatialGranuleSweep sweeps proximity-group size (§5.3.2).
func BenchmarkSpatialGranuleSweep(b *testing.B) {
	cfg := exp.DefaultRedwoodConfig()
	cfg.Duration = 24 * time.Hour
	cfg.Sim.Motes = 16
	var yield8 float64
	for i := 0; i < b.N; i++ {
		points, e := exp.RunSpatialSweep(cfg, []int{2, 8})
		if e != nil {
			b.Fatal(e)
		}
		yield8 = points[1].MergeYield
	}
	b.ReportMetric(yield8, "yieldAtSize8")
}

// BenchmarkFig9DigitalHome runs the §6 person detector (600 s, 8 devices,
// three pipelines plus Virtualize).
func BenchmarkFig9DigitalHome(b *testing.B) {
	cfg := exp.DefaultHomeConfig()
	var acc float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunDigitalHome(cfg)
		if e != nil {
			b.Fatal(e)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkActuation runs the §5.3.1 receptor-actuation comparison (an
// extension: the paper leaves actuation as future work).
func BenchmarkActuation(b *testing.B) {
	cfg := exp.DefaultActuationConfig()
	cfg.Duration = 12 * time.Hour
	cfg.Sim.Motes = 8
	var actuatedYield float64
	for i := 0; i < b.N; i++ {
		vs, e := exp.RunActuation(cfg)
		if e != nil {
			b.Fatal(e)
		}
		actuatedYield = vs[2].SmoothYield
	}
	b.ReportMetric(actuatedYield, "actuatedYield")
}

// BenchmarkModelOutlier runs the §6.3.1 BBQ-style model-based cleaning
// extension: detecting a fail-dirty sensor from its own voltage channel.
func BenchmarkModelOutlier(b *testing.B) {
	cfg := exp.DefaultModelOutlierConfig()
	var leadHours float64
	for i := 0; i < b.N; i++ {
		res, e := exp.RunModelOutlier(cfg)
		if e != nil {
			b.Fatal(e)
		}
		leadHours = (res.ThresholdFirstDrop - res.ModelFirstDrop).Hours()
	}
	b.ReportMetric(leadHours, "leadHours")
}

// BenchmarkRobustMerge runs the Merge-estimator ablation (avg±σ vs median
// vs plain average) on the fail-dirty scenario.
func BenchmarkRobustMerge(b *testing.B) {
	cfg := exp.DefaultOutlierConfig()
	cfg.Duration = 30 * time.Hour
	var medianWithin float64
	for i := 0; i < b.N; i++ {
		rs, e := exp.RunRobustMerge(cfg)
		if e != nil {
			b.Fatal(e)
		}
		medianWithin = rs[1].Within1C
	}
	b.ReportMetric(medianWithin, "medianWithin1C")
}

// --- design ablations -------------------------------------------------

// windowAggBench drives one WindowAgg over a synthetic RFID stream.
func windowAggBench(b *testing.B, naive bool) {
	schema := stream.MustSchema(
		stream.Field{Name: "tag_id", Kind: stream.KindString},
		stream.Field{Name: "shelf", Kind: stream.KindInt},
	)
	tags := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	start := time.Unix(0, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &stream.WindowAgg{
			GroupBy: []stream.NamedExpr{{Name: "tag_id", Expr: stream.NewCol("tag_id")}},
			Aggs: []stream.AggSpec{
				{Name: "n", Func: stream.AggCount},
				{Name: "d", Func: stream.AggCount, Arg: stream.NewCol("shelf"), Distinct: true},
			},
			Range: 5 * time.Second,
			Slide: 200 * time.Millisecond,
			Naive: naive,
		}
		if err := w.Open(schema); err != nil {
			b.Fatal(err)
		}
		for epoch := 0; epoch < 500; epoch++ {
			now := start.Add(time.Duration(epoch+1) * 200 * time.Millisecond)
			for t, tag := range tags {
				tu := stream.NewTuple(now.Add(-time.Millisecond), stream.String(tag), stream.Int(int64(t%2)))
				if _, err := w.Process(tu); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := w.Advance(now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationPanes compares the pane-merging window implementation
// against from-scratch re-aggregation (DESIGN.md: punctuated push model).
func BenchmarkAblationPanes(b *testing.B)      { windowAggBench(b, false) }
func BenchmarkAblationPanesNaive(b *testing.B) { windowAggBench(b, true) }
