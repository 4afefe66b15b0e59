// Command espbench regenerates every table and figure of the paper's
// evaluation from the simulated deployments:
//
//	espbench -exp fig3     §4  shelf pipeline: raw vs Smooth vs Smooth+Arbitrate
//	espbench -exp fig5     §4  pipeline-configuration ablation
//	espbench -exp fig6     §4  temporal-granule sweep
//	espbench -exp fig7     §5.1 fail-dirty outlier detection
//	espbench -exp yield    §5.2 redwood epoch yield / accuracy ladder
//	espbench -exp spatial  §5.3.2 spatial-granule sweep
//	espbench -exp fig9     §6  digital-home person detector
//	espbench -exp actuation §5.3.1 receptor actuation (extension)
//	espbench -exp model    §6.3.1 model-based outlier cleaning (extension)
//	espbench -exp robust   Merge-stage estimator ablation (extension)
//	espbench -exp chaos    fault-injection harness (supervised runtime)
//	espbench -exp all      everything above
//
// Add -trace to emit the per-epoch series behind the figure (CSV on
// stdout after the summary).
package main

import (
	"flag"
	"fmt"
	"os"

	"esp/internal/exp"
)

func main() {
	expName := flag.String("exp", "all", "experiment id: fig3, fig5, fig6, fig7, yield, spatial, fig9, actuation, model, robust, chaos, all")
	trace := flag.Bool("trace", false, "emit per-epoch trace CSV after the summary")
	seed := flag.Int64("seed", 0, "override the simulation seed (0 = calibrated defaults)")
	flag.Parse()
	seedOverride = *seed

	runners := map[string]func(bool) error{
		"fig3":      runFig3,
		"fig5":      runFig5,
		"fig6":      runFig6,
		"fig7":      runFig7,
		"yield":     runYield,
		"spatial":   runSpatial,
		"fig9":      runFig9,
		"actuation": runActuation,
		"model":     runModel,
		"robust":    runRobust,
		"chaos":     runChaos,
	}
	order := []string{"fig3", "fig5", "fig6", "fig7", "yield", "spatial", "fig9", "actuation", "model", "robust", "chaos"}

	if *expName == "all" {
		for _, name := range order {
			if err := runners[name](*trace); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		return
	}
	run, ok := runners[*expName]
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q (have %v)", *expName, order))
	}
	if err := run(*trace); err != nil {
		fatal(err)
	}
}

// seedOverride, when non-zero, replaces every scenario's calibrated seed
// — for checking that the reproduction's shape is not seed-specific.
var seedOverride int64

func shelfCfg() exp.ShelfConfig {
	cfg := exp.DefaultShelfConfig()
	if seedOverride != 0 {
		cfg.Sim.Seed = seedOverride
	}
	return cfg
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espbench:", err)
	os.Exit(1)
}

func runFig3(trace bool) error {
	fmt.Println("== fig3: §4 RFID shelf — Query 1 error through the pipeline ==")
	fmt.Println("   paper: raw 0.41 (2.3 restock alerts/s), Smooth 0.24, Smooth+Arbitrate 0.04 (~0 alerts)")
	for _, mode := range []exp.PipelineMode{exp.ModeRaw, exp.ModeSmoothOnly, exp.ModeSmoothArbitrate} {
		cfg := shelfCfg()
		cfg.Mode = mode
		cfg.KeepTrace = trace && mode == exp.ModeSmoothArbitrate
		res, err := exp.RunShelf(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("   %-18s avg rel err %.3f   restock alerts %.2f/s\n", mode, res.AvgRelErr, res.AlertRate)
		if cfg.KeepTrace {
			fmt.Println("t_s,shelf0_reported,shelf0_truth,shelf1_reported,shelf1_truth")
			for _, row := range res.Trace {
				fmt.Printf("%.1f,%d,%d,%d,%d\n", row.T.Seconds(),
					row.Reported[0], row.Truth[0], row.Reported[1], row.Truth[1])
			}
		}
	}
	return nil
}

func runFig5(bool) error {
	fmt.Println("== fig5: §4 pipeline-configuration ablation (avg rel err) ==")
	fmt.Println("   paper: only Smooth followed by Arbitrate provides significant benefit")
	res, err := exp.RunShelfAblation(shelfCfg())
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("   %-18s %.3f\n", r.Mode, r.AvgRelErr)
	}
	return nil
}

func runFig6(bool) error {
	fmt.Println("== fig6: §4 temporal-granule sweep (avg rel err, Smooth+Arbitrate) ==")
	fmt.Println("   paper: U-shape bounded by device reliability below and data change rate above; best ≈ 5 s")
	points, err := exp.RunGranuleSweep(shelfCfg(), nil)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("   granule %8s  %.3f\n", p.Granule, p.AvgRelErr)
	}
	return nil
}

func runFig7(trace bool) error {
	fmt.Println("== fig7: §5.1 fail-dirty outlier detection ==")
	fmt.Println("   paper: ESP tracks the functioning motes; Merge eliminates the outlier before Point's 50C filter")
	cfg := exp.DefaultOutlierConfig()
	if seedOverride != 0 {
		cfg.Sim.Seed = seedOverride
	}
	cfg.KeepTrace = trace
	res, err := exp.RunOutlier(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("   Merge first eliminates outlier at %v (failure onset %v)\n", res.FirstEliminated, cfg.Sim.FailStart)
	fmt.Printf("   Point first filters (>50C) at    %v\n", res.PointFirstFiltered)
	fmt.Printf("   post-failure: ESP within 1C %.1f%%, max err ESP %.1fC vs naive avg %.1fC\n",
		100*res.ESPWithin1C, res.ESPMaxErr, res.NaiveMaxErr)
	if trace {
		fmt.Println("t_days,mote1_failing,mote2,mote3,naive_avg,esp,truth")
		for _, row := range res.Trace {
			fmt.Printf("%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n", row.T.Hours()/24,
				row.Motes[0], row.Motes[1], row.Motes[2], row.NaiveAvg, row.ESP, row.Truth)
		}
	}
	return nil
}

func runYield(bool) error {
	fmt.Println("== yield: §5.2 redwood epoch yield / accuracy ==")
	fmt.Println("   paper: raw 40% -> Smooth 77% (99% within 1C) -> Merge 92% (94% within 1C)")
	cfg := exp.DefaultRedwoodConfig()
	if seedOverride != 0 {
		cfg.Sim.Seed = seedOverride
	}
	res, err := exp.RunRedwoodYield(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("   raw            yield %4.1f%%\n", 100*res.RawYield)
	fmt.Printf("   after Smooth   yield %4.1f%%   within 1C %4.1f%%\n", 100*res.SmoothYield, 100*res.SmoothWithinTol)
	fmt.Printf("   after Merge    yield %4.1f%%   within 1C %4.1f%%\n", 100*res.MergeYield, 100*res.MergeWithinTol)
	return nil
}

func runSpatial(bool) error {
	fmt.Println("== spatial: §5.3.2 spatial-granule (proximity-group size) sweep ==")
	fmt.Println("   paper (discussion): larger granules raise yield at the expense of accuracy")
	scfg := exp.DefaultRedwoodConfig()
	if seedOverride != 0 {
		scfg.Sim.Seed = seedOverride
	}
	points, err := exp.RunSpatialSweep(scfg, nil)
	if err != nil {
		return err
	}
	for _, p := range points {
		fmt.Printf("   group size %d   yield %4.1f%%   within 1C %4.1f%%\n",
			p.GroupSize, 100*p.MergeYield, 100*p.WithinTol)
	}
	return nil
}

func runFig9(trace bool) error {
	fmt.Println("== fig9: §6 digital-home person detector ==")
	fmt.Println("   paper: ESP correctly indicates presence 92% of the time")
	cfg := exp.DefaultHomeConfig()
	if seedOverride != 0 {
		cfg.Sim.Seed = seedOverride
	}
	cfg.KeepTrace = trace
	res, err := exp.RunDigitalHome(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("   accuracy %.1f%%  (false positives %d, false negatives %d over %d s)\n",
		100*res.Accuracy, res.FalsePositives, res.FalseNegatives, res.Epochs)
	if trace {
		fmt.Println("t_s,detected,truth")
		for _, row := range res.Trace {
			fmt.Printf("%.0f,%d,%d\n", row.T.Seconds(), b2i(row.Detected), b2i(row.Truth))
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
