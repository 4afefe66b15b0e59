package exp

import (
	"fmt"
	"time"

	"esp/internal/core"
)

// BatchConfig parameterises the columnar-execution experiment: the wide
// workload (SchedConfig) run with the columnar batch path and the CQL plan
// optimizer enabled (the defaults) versus both disabled (row-at-a-time
// tuples, naive plans) — same deterministic input, wall time only.
type BatchConfig struct {
	Sched SchedConfig
	// Repeats is how many times each mode runs; the minimum wall time is
	// kept (least-noise estimator).
	Repeats int
}

// DefaultBatchConfig reuses the wide workload so the committed
// BENCH_batch.json is directly comparable to BENCH_baseline.json.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Sched: DefaultSchedConfig(), Repeats: 3}
}

// BatchModeResult is one execution mode's measurement.
type BatchModeResult struct {
	Mode string `json:"mode"` // "tuple" (batching+optimizer off) or "batch"
	// WallNs is the minimum wall time over Repeats runs.
	WallNs int64 `json:"wall_ns"`
	// NsPerEpoch is WallNs / Epochs.
	NsPerEpoch int64 `json:"ns_per_epoch"`
}

// BatchResult is the whole experiment, serialised into BENCH_batch.json.
type BatchResult struct {
	Experiment string            `json:"experiment"`
	Receptors  int               `json:"receptors"`
	Groups     int               `json:"groups"`
	Epochs     int               `json:"epochs"`
	Repeats    int               `json:"repeats"`
	Modes      []BatchModeResult `json:"modes"`
	// Speedup is tuple wall / batch wall (>1 means the columnar path won).
	Speedup float64 `json:"speedup"`
	// OutputTuples is the sink tuple count (identical across modes).
	OutputTuples int `json:"output_tuples"`
	// Identical reports whether both modes produced the same sink
	// fingerprint — the oracle's batched-vs-tuple guarantee, re-checked
	// here on the benchmark workload.
	Identical bool `json:"identical"`
}

// RunBatchComparison times the wide deployment with columnar batching
// and the plan optimizer on versus off and cross-checks the output
// fingerprints.
func RunBatchComparison(cfg BatchConfig) (*BatchResult, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	type mode struct {
		name string
		tune func(*core.Deployment)
	}
	modes := []mode{
		{"tuple", func(d *core.Deployment) { d.DisableBatching = true; d.DisableOptimizer = true }},
		{"batch", nil},
	}
	res := &BatchResult{
		Experiment: "batch",
		Receptors:  cfg.Sched.Receptors,
		Groups:     (cfg.Sched.Receptors + cfg.Sched.GroupSize - 1) / cfg.Sched.GroupSize,
		Epochs:     int(cfg.Sched.Duration / cfg.Sched.Epoch),
		Repeats:    cfg.Repeats,
	}
	var counts [2]int
	var sums [2]float64
	var walls [2]time.Duration
	for i, m := range modes {
		var best time.Duration
		for r := 0; r < cfg.Repeats; r++ {
			n, sum, wall, err := runWideSched(cfg.Sched, m.tune)
			if err != nil {
				return nil, fmt.Errorf("exp: batch %s: %w", m.name, err)
			}
			if best == 0 || wall < best {
				best = wall
			}
			counts[i], sums[i] = n, sum
		}
		walls[i] = best
		mr := BatchModeResult{Mode: m.name, WallNs: best.Nanoseconds()}
		if res.Epochs > 0 {
			mr.NsPerEpoch = mr.WallNs / int64(res.Epochs)
		}
		res.Modes = append(res.Modes, mr)
	}
	res.OutputTuples = counts[1]
	res.Identical = counts[0] == counts[1] && sums[0] == sums[1]
	if walls[1] > 0 {
		res.Speedup = float64(walls[0]) / float64(walls[1])
	}
	if !res.Identical {
		return res, fmt.Errorf("exp: batch modes diverged: tuple %d tuples (checksum %g) vs batch %d (%g)",
			counts[0], sums[0], counts[1], sums[1])
	}
	return res, nil
}
