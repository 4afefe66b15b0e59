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

// freshPoll wraps a receptor so every Poll result is a private copy —
// the reference for a receptor that reuses its Poll slice.
type freshPoll struct{ receptor.Receptor }

func (f freshPoll) Poll(now time.Time) []stream.Tuple {
	return append([]stream.Tuple(nil), f.Receptor.Poll(now)...)
}

// TestChannelPollReuseIdentical audits the Receptor.Poll ownership rule
// against the pipeline: a Processor over Channels, whose Poll hands back
// the same backing array every epoch, must produce byte-identical sink
// output to one whose receptors return fresh slices — over many epochs
// of reuse, with readings held back across polls, on the row-at-a-time
// path (DisableBatching) as well as the columnar one. A stage that kept
// a polled slice past its Step would see it overwritten by the next
// Poll and diverge.
func TestChannelPollReuseIdentical(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "mote_id", Kind: stream.KindString},
		stream.Field{Name: "temp", Kind: stream.KindFloat},
	)
	const motes, epochs = 6, 200
	run := func(noBatch, fresh bool) []byte {
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
			DisableBatching: noBatch,
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
	for _, noBatch := range []bool{true, false} {
		reused, fresh := run(noBatch, false), run(noBatch, true)
		if len(fresh) == 0 {
			t.Fatalf("DisableBatching=%v: no output", noBatch)
		}
		if !bytes.Equal(reused, fresh) {
			t.Fatalf("DisableBatching=%v: sink output over reused Poll slices (%d B) differs from fresh ones (%d B)",
				noBatch, len(reused), len(fresh))
		}
	}
}
