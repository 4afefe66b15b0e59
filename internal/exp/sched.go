package exp

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"esp/internal/core"
	"esp/internal/receptor"
	"esp/internal/stream"
)

// SchedConfig parameterises the wide workload the batch and WAL
// experiments build on: a deliberately wide deployment (many legs, one
// Merge per proximity group). All receptor data is pre-generated
// deterministically, so runs are byte-identical.
type SchedConfig struct {
	// Receptors is the total device count (they form Receptors/GroupSize
	// proximity groups, each with its own Merge node).
	Receptors int
	// GroupSize is the proximity-group width.
	GroupSize int
	// SamplesPerEpoch is how many readings each receptor delivers per
	// epoch — raising it makes each leg's windowed Smooth heavier.
	SamplesPerEpoch int
	// Epoch and Duration size the run; SmoothWindow is the temporal
	// granule expansion (as in §5.2.1).
	Epoch, Duration, SmoothWindow time.Duration
}

// DefaultSchedConfig is wide enough (48 legs + 12 merges) that the
// pipeline's advance loop dominates an epoch.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{
		Receptors:       48,
		GroupSize:       4,
		SamplesPerEpoch: 16,
		Epoch:           5 * time.Minute,
		Duration:        12 * time.Hour,
		SmoothWindow:    30 * time.Minute,
	}
}

// BuildWideDeployment constructs the wide deployment: one mote-type
// pipeline (SmoothAvg + MergeAvg) over Receptors replay devices emitting
// a deterministic sinusoid. Each call returns fresh replay receptors, so
// build once per run.
func BuildWideDeployment(cfg SchedConfig) (*core.Deployment, error) {
	if cfg.Receptors <= 0 || cfg.GroupSize <= 0 || cfg.SamplesPerEpoch <= 0 {
		return nil, fmt.Errorf("exp: sched config must be positive: %+v", cfg)
	}
	schema := stream.MustSchema(stream.Field{Name: "temp", Kind: stream.KindFloat})
	start := time.Unix(0, 0).UTC()
	epochs := int(cfg.Duration / cfg.Epoch)
	groups := receptor.NewGroups()
	recs := make([]receptor.Receptor, cfg.Receptors)
	var members []string
	granule := 0
	for i := 0; i < cfg.Receptors; i++ {
		id := fmt.Sprintf("wide%03d", i)
		tuples := make([]stream.Tuple, 0, epochs*cfg.SamplesPerEpoch)
		for e := 0; e < epochs; e++ {
			epochStart := start.Add(time.Duration(e) * cfg.Epoch)
			for s := 0; s < cfg.SamplesPerEpoch; s++ {
				ts := epochStart.Add(time.Duration(s+1) * cfg.Epoch / time.Duration(cfg.SamplesPerEpoch+1))
				v := 20 + 5*math.Sin(float64(e*cfg.SamplesPerEpoch+s)/37) + 0.1*float64(i%7)
				tuples = append(tuples, stream.NewTuple(ts, stream.Float(v)))
			}
		}
		recs[i] = receptor.NewReplay(id, receptor.TypeMote, schema, tuples)
		members = append(members, id)
		if len(members) == cfg.GroupSize || i == cfg.Receptors-1 {
			groups.MustAdd(receptor.Group{
				Name:    fmt.Sprintf("granule%02d", granule),
				Type:    receptor.TypeMote,
				Members: members,
			})
			granule++
			members = nil
		}
	}
	return &core.Deployment{
		Epoch:     cfg.Epoch,
		Receptors: recs,
		Groups:    groups,
		Pipelines: map[receptor.Type]*core.Pipeline{
			receptor.TypeMote: {
				Type:   receptor.TypeMote,
				Smooth: core.SmoothAvg("temp", cfg.SmoothWindow),
				Merge:  core.MergeAvg("temp", cfg.Epoch),
			},
		},
	}, nil
}

// RunWideSched drives one freshly built wide deployment and returns the
// sink-output fingerprint (tuple count and a positional checksum of
// every emitted value) plus the wall time.
func RunWideSched(cfg SchedConfig) (count int, checksum float64, wall time.Duration, err error) {
	return runWideSched(cfg, nil)
}

// runWideSched is RunWideSched with a deployment hook: tune (when
// non-nil) adjusts the built deployment before the processor is
// constructed — the batch experiment uses it to pin the tuple path.
func runWideSched(cfg SchedConfig, tune func(*core.Deployment)) (count int, checksum float64, wall time.Duration, err error) {
	dep, err := BuildWideDeployment(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	if tune != nil {
		tune(dep)
	}
	p, err := core.NewProcessor(dep)
	if err != nil {
		return 0, 0, 0, err
	}
	p.OnType(receptor.TypeMote, func(tu stream.Tuple) {
		count++
		for i, v := range tu.Values {
			if v.Kind() == stream.KindFloat {
				checksum += float64(count*(i+1)) * v.AsFloat()
			}
		}
	})
	start := time.Unix(0, 0).UTC()
	// Collect the build-phase garbage (the replayed samples alone are
	// megabytes) so the timed section measures the pipeline's own
	// allocation behaviour, not the deployment builder's.
	runtime.GC()
	t0 := time.Now()
	if err := p.Run(start, start.Add(cfg.Duration)); err != nil {
		return 0, 0, 0, err
	}
	return count, checksum, time.Since(t0), nil
}
