package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
	"esp/internal/wire"
)

// freshPoll wraps a receptor so every Poll result is a private copy,
// values included — the reference for a receptor that reuses its Poll
// slice and value storage.
type freshPoll struct{ receptor.Receptor }

func (f freshPoll) Poll(now time.Time) []stream.Tuple {
	var out []stream.Tuple
	for _, tu := range f.Receptor.Poll(now) {
		out = append(out, tu.Clone())
	}
	return out
}

// TestChannelPollReuseIdentical audits the Receptor.Poll ownership rule
// against the pipeline: a Processor over Channels, whose Poll hands back
// the same result slice every epoch and values in slabs the channel
// recycles, must produce byte-identical sink output to one whose
// receptors return private copies — over many epochs of reuse, with
// readings held back across polls, in all eight execution
// configurations, and with a delay-fault wrapper (receptor.Faulty)
// between the channel and the processor, which must copy the readings
// it holds past the channel's next Poll. A stage that kept a polled
// tuple or its values past its Step would see them overwritten and
// diverge.
func TestChannelPollReuseIdentical(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "mote_id", Kind: stream.KindString},
		stream.Field{Name: "temp", Kind: stream.KindFloat},
	)
	const motes, epochs = 6, 200
	type config struct{ noBatch, noOpt, noPart, delay bool }
	run := func(cfg config, fresh bool) []byte {
		chans := make([]*receptor.Channel, motes)
		recs := make([]receptor.Receptor, motes)
		groups := receptor.NewGroups()
		for g := 0; g < 2; g++ {
			var members []string
			for m := g * motes / 2; m < (g+1)*motes/2; m++ {
				chans[m] = receptor.NewChannel(fmt.Sprintf("m%d", m), receptor.TypeMote, schema)
				recs[m] = chans[m]
				if fresh {
					recs[m] = freshPoll{chans[m]}
				}
				if cfg.delay {
					recs[m] = receptor.NewFaulty(recs[m], int64(m), receptor.Fault{
						Kind: receptor.FaultDelay, Delay: 2 * time.Second, From: at(20), Until: at(120),
					})
				}
				members = append(members, chans[m].ID())
			}
			groups.MustAdd(receptor.Group{Name: fmt.Sprintf("g%d", g), Type: receptor.TypeMote, Members: members})
		}
		p, err := NewProcessor(&Deployment{
			Epoch:     time.Second,
			Receptors: recs,
			Groups:    groups,
			Pipelines: map[receptor.Type]*Pipeline{
				receptor.TypeMote: {
					Type:   receptor.TypeMote,
					Point:  PointBelow("temp", 40),
					Smooth: SmoothAvg("temp", 3*time.Second),
					Merge:  MergeAvg("temp", time.Second),
				},
			},
			DisableBatching:     cfg.noBatch,
			DisableOptimizer:    cfg.noOpt,
			DisablePartitioning: cfg.noPart,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sink []byte
		p.OnType(receptor.TypeMote, func(tu stream.Tuple) { sink = wire.AppendTuple(sink, tu) })
		rng := rand.New(rand.NewSource(7))
		for e := 1; e <= epochs; e++ {
			now := at(float64(e))
			for _, ch := range chans {
				// A varying number of due readings — so the reused result
				// slice shrinks and grows — plus one dated past this
				// epoch, held in the backlog across the poll.
				var batch []stream.Tuple
				for k := rng.Intn(5); k >= 0; k-- {
					ts := at(float64(e) - rng.Float64()*0.9)
					batch = append(batch, stream.NewTuple(ts, stream.String(ch.ID()), stream.Float(15+30*rng.Float64())))
				}
				batch = append(batch, stream.NewTuple(at(float64(e)+1.5), stream.String(ch.ID()), stream.Float(20+rng.Float64())))
				ch.PublishAll(batch)
			}
			if err := p.Step(now); err != nil {
				t.Fatal(err)
			}
		}
		return sink
	}
	var cfgs []config
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, config{noBatch: i&1 != 0, noOpt: i&2 != 0, noPart: i&4 != 0})
	}
	cfgs = append(cfgs, config{delay: true}, config{noBatch: true, delay: true})
	for _, cfg := range cfgs {
		reused, fresh := run(cfg, false), run(cfg, true)
		if len(fresh) == 0 {
			t.Fatalf("%+v: no output", cfg)
		}
		if !bytes.Equal(reused, fresh) {
			t.Fatalf("%+v: sink output over reused Poll results (%d B) differs from private copies (%d B)",
				cfg, len(reused), len(fresh))
		}
	}
}
