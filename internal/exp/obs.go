package exp

import (
	"fmt"
	"time"

	"esp/internal/core"
	"esp/internal/receptor"
	"esp/internal/sim"
	"esp/internal/stream"
)

// ObsConfig parameterises RunObsBaseline: the three paper deployments
// (shelf RFID, redwood lab motes, digital home) run with telemetry off,
// wall time only.
type ObsConfig struct {
	// Repeats is how many times each deployment is run; the minimum
	// wall time is kept (least-noise estimator).
	Repeats int
	// Seed overrides the scenario seeds when non-zero.
	Seed int64
}

// BaselinePoint is one deployment's telemetry-off wall time.
type BaselinePoint struct {
	Name       string
	Epochs     int
	WallNs     int64
	NsPerEpoch int64
}

// BaselineResult is the telemetry-off wall-time profile of the three
// paper deployments.
type BaselineResult struct {
	Deployments []BaselinePoint
}

// RunObsBaseline times the three paper deployments in process with
// telemetry off — the pipeline's own cost on the shapes the paper
// evaluated.
func RunObsBaseline(cfg ObsConfig) (*BaselineResult, error) {
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	res := &BaselineResult{}
	for _, d := range obsDeployments(cfg.Seed) {
		var best time.Duration
		var epochs int
		for r := 0; r < cfg.Repeats; r++ {
			wall, ep, err := obsRun(d)
			if err != nil {
				return nil, fmt.Errorf("exp: baseline %s: %w", d.name, err)
			}
			if best == 0 || wall < best {
				best, epochs = wall, ep
			}
		}
		pt := BaselinePoint{Name: d.name, Epochs: epochs, WallNs: best.Nanoseconds()}
		if epochs > 0 {
			pt.NsPerEpoch = pt.WallNs / int64(epochs)
		}
		res.Deployments = append(res.Deployments, pt)
	}
	return res, nil
}

// obsDeployment describes one measurable workload: Build returns a
// fresh deployment (fresh receptors, same seed) for every run so all
// repeats see byte-identical input.
type obsDeployment struct {
	name     string
	build    func() (*core.Deployment, error)
	duration time.Duration
}

// obsDeployments builds the three paper workloads at their default
// evaluation sizes (shelf §4, redwood lab §5.2, digital home §6).
func obsDeployments(seed int64) []obsDeployment {
	return []obsDeployment{
		{
			name:     "shelf",
			duration: 700 * time.Second,
			build: func() (*core.Deployment, error) {
				cfg := sim.DefaultShelfConfig()
				if seed != 0 {
					cfg.Seed = seed
				}
				sc, err := sim.NewShelfScenario(cfg)
				if err != nil {
					return nil, err
				}
				return &core.Deployment{
					Epoch:     cfg.PollPeriod,
					Receptors: sc.Receptors(),
					Groups:    sc.Groups,
					Pipelines: map[receptor.Type]*core.Pipeline{
						receptor.TypeRFID: shelfPipeline(ModeSmoothArbitrate, 5*time.Second),
					},
				}, nil
			},
		},
		{
			name:     "lab",
			duration: 84 * time.Hour,
			build: func() (*core.Deployment, error) {
				cfg := sim.DefaultRedwoodConfig()
				if seed != 0 {
					cfg.Seed = seed
				}
				sc, err := sim.NewRedwoodScenario(cfg)
				if err != nil {
					return nil, err
				}
				recs := make([]receptor.Receptor, len(sc.Motes))
				for i, m := range sc.Motes {
					recs[i] = m
				}
				return &core.Deployment{
					Epoch:     cfg.Epoch,
					Receptors: recs,
					Groups:    sc.Groups,
					Pipelines: map[receptor.Type]*core.Pipeline{
						receptor.TypeMote: {
							Type:   receptor.TypeMote,
							Smooth: core.SmoothAvg("temp", 30*time.Minute),
							Merge:  core.MergeAvg("temp", cfg.Epoch),
						},
					},
				}, nil
			},
		},
		{
			name:     "home",
			duration: 600 * time.Second,
			build: func() (*core.Deployment, error) {
				cfg := sim.DefaultHomeConfig()
				if seed != 0 {
					cfg.Seed = seed
				}
				sc, err := sim.NewHomeScenario(cfg)
				if err != nil {
					return nil, err
				}
				expectedTags := stream.MustTable(
					stream.MustSchema(stream.Field{Name: "expected_tag", Kind: stream.KindString}),
					[]stream.Tuple{stream.NewTuple(time.Time{}, stream.String(sim.BadgeTagID))},
				)
				granule := 10 * time.Second
				return &core.Deployment{
					Epoch:     cfg.Epoch,
					Receptors: sc.Receptors(),
					Groups:    sc.Groups,
					Tables:    map[string]*stream.Table{"expected_tags": expectedTags},
					Pipelines: map[receptor.Type]*core.Pipeline{
						receptor.TypeRFID: {
							Type:   receptor.TypeRFID,
							Point:  core.Compose(core.PointChecksum("checksum_ok"), core.PointExpectedTags("tag_id", "expected_tags", "expected_tag")),
							Smooth: core.SmoothTagCount(granule),
							Merge:  core.MergeUnion(),
						},
						receptor.TypeMote: {
							Type:   receptor.TypeMote,
							Smooth: core.SmoothAvg("noise", granule),
							Merge:  core.MergeAvg("noise", cfg.Epoch),
						},
						receptor.TypeMotion: {
							Type:   receptor.TypeMotion,
							Smooth: core.SmoothEvents(granule, 1),
							Merge:  core.MergeVote(cfg.Epoch, 2),
						},
					},
					Virtualize: &core.VirtualizeSpec{
						Query: core.PersonDetectorQuery(525, 2),
						Bind: map[string]receptor.Type{
							"sensors_input": receptor.TypeMote,
							"rfid_input":    receptor.TypeRFID,
							"motion_input":  receptor.TypeMotion,
						},
					},
				}, nil
			},
		},
	}
}

// obsRun builds a fresh processor with telemetry off, drives it over
// the deployment's full duration, and reports the wall time.
func obsRun(d obsDeployment) (wall time.Duration, epochs int, err error) {
	dep, err := d.build()
	if err != nil {
		return 0, 0, err
	}
	p, err := core.NewProcessor(dep)
	if err != nil {
		return 0, 0, err
	}
	// Swallow output: the workload is the pipeline, not the sink.
	for typ := range dep.Pipelines {
		p.OnType(typ, func(stream.Tuple) {})
	}

	start := time.Unix(0, 0).UTC()
	t0 := time.Now()
	if err := p.Run(start, start.Add(d.duration)); err != nil {
		return 0, 0, err
	}
	return time.Since(t0), int(d.duration / dep.Epoch), nil
}
