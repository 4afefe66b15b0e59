package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"esp/internal/receptor"
	"esp/internal/sim"
	"esp/internal/stream"
)

// LoadgenOptions shapes the simulated sensor-network deployment shared
// by the netchaos and obsserve harnesses and the serving benchmark's
// motes-1k workload (bench/): motes partitioned into
// spatial granules, lossy radios, and a seeded fraction of data-faulty
// sensors. The same options always generate the same workload.
type LoadgenOptions struct {
	Motes      int           // simulated motes (concurrent receptors)
	GroupSize  int           // motes per spatial granule
	Epochs     int           // epochs to replay
	Epoch      time.Duration // epoch length (simulated time)
	Delivery   float64       // per-epoch radio delivery probability
	FaultEvery int           // every Nth mote gets a fault schedule (0 = none)
	Seed       int64         // workload RNG seed
}

// DefaultLoadgenOptions is the canonical 1000-mote workload.
func DefaultLoadgenOptions() LoadgenOptions {
	return LoadgenOptions{
		Motes:      1000,
		GroupSize:  8,
		Epochs:     30,
		Epoch:      time.Second,
		Delivery:   0.9,
		FaultEvery: 10,
		Seed:       1,
	}
}

// Step is one epoch of pre-generated workload: the per-receptor
// readings to publish, then the boundary to advance to.
type Step struct {
	Pubs map[string][]stream.Tuple
	Now  time.Time
}

// MoteID is the receptor ID of the i'th simulated mote.
func MoteID(i int) string { return fmt.Sprintf("mote-%04d", i) }

// LoadgenSpec assembles the tenant spec for the loadgen deployment:
// motes partitioned into spatial granules of GroupSize, a smooth/merge
// averaging pipeline, and a channel cap sized for one epoch of
// readings.
func LoadgenSpec(o LoadgenOptions) []byte {
	groups := map[string]any{}
	var members []string
	gi := 0
	flush := func() {
		if len(members) > 0 {
			groups[fmt.Sprintf("cell-%03d", gi)] = map[string]any{"type": "mote", "members": members}
			members = nil
			gi++
		}
	}
	recs := make([]map[string]any, 0, o.Motes)
	for i := 0; i < o.Motes; i++ {
		id := MoteID(i)
		recs = append(recs, map[string]any{"id": id, "type": "mote", "schema": "mote_id:string,temp:float"})
		members = append(members, id)
		if len(members) == o.GroupSize {
			flush()
		}
	}
	flush()

	smoothWin := 5 * o.Epoch
	spec := map[string]any{
		"deployment": map[string]any{
			"epoch":  o.Epoch.String(),
			"groups": groups,
			"pipelines": map[string]any{
				"mote": map[string]any{
					"smooth": fmt.Sprintf("SELECT avg(temp) AS temp FROM smooth_input [Range By '%s']", smoothWin),
					"merge":  fmt.Sprintf("SELECT avg(temp) AS temp FROM merge_input [Range By '%s']", o.Epoch),
				},
			},
		},
		"receptors": recs,
		"quota":     map[string]any{"channel_cap": 4 * o.Motes},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// LoadgenWorkload pre-generates every epoch's readings so all consumers
// of the workload replay byte-identical input. Each mote samples a
// diurnal temperature field with per-mote bias and Gaussian noise
// through a lossy radio (sim.Mote), once per epoch at mid-epoch; every
// FaultEvery'th mote is additionally wrapped in a seeded
// receptor.Faulty data-fault schedule (drops, link-layer duplicates,
// and a fail-dirty stuck sensor) so the replayed population misbehaves
// the way the paper's deployments did.
func LoadgenWorkload(o LoadgenOptions) (steps []Step, published int) {
	base := time.Unix(0, 0).UTC()
	motes := make([]receptor.Receptor, o.Motes)
	for i := range motes {
		bias := float64(i%17)*0.1 - 0.8
		m := sim.NewMote(o.Seed, MoteID(i), o.Delivery, sim.SensorModel{
			Name: "temp",
			Truth: func(now time.Time) float64 {
				day := float64(now.UnixNano()) / float64(24*time.Hour)
				return 18 + 8*math.Sin(2*math.Pi*day)
			},
			Bias:     bias,
			NoiseStd: 0.3,
		})
		if o.FaultEvery > 0 && i%o.FaultEvery == o.FaultEvery-1 {
			quarter := time.Duration(o.Epochs) * o.Epoch / 4
			motes[i] = receptor.NewFaulty(m, o.Seed+int64(i),
				receptor.Fault{Kind: receptor.FaultDrop, P: 0.5,
					From: base.Add(quarter), Until: base.Add(2 * quarter)},
				receptor.Fault{Kind: receptor.FaultDuplicate, P: 0.3,
					From: base.Add(2 * quarter), Until: base.Add(3 * quarter)},
				receptor.Fault{Kind: receptor.FaultStuck, Field: "temp", Value: stream.Float(120),
					From: base.Add(3 * quarter)},
			)
		} else {
			motes[i] = m
		}
	}
	for e := 1; e <= o.Epochs; e++ {
		st := Step{Pubs: make(map[string][]stream.Tuple), Now: base.Add(time.Duration(e) * o.Epoch)}
		sample := st.Now.Add(-o.Epoch / 2)
		for i, m := range motes {
			ts := m.Poll(sample)
			if len(ts) > 0 {
				st.Pubs[MoteID(i)] = ts
				published += len(ts)
			}
		}
		steps = append(steps, st)
	}
	return steps, published
}
