package oracle

import (
	"time"

	"esp/internal/stream"
)

// This file is the reference implementation of the five-stage pipeline
// for the mote deployment family: a straight-line interpreter that
// recomputes every epoch's sink output from the recorded traces and the
// documented stage contracts — annotate, Point filter, per-leg Smooth
// window average, per-group Merge window aggregate — sharing no code
// with the Processor or its dataflow graph. Timestamps
// in the traces coincide with epoch boundaries and every window width is
// a multiple of the epoch, so the reference never faces the late-arrival
// rule (refwindow.go covers that dimension independently).

// refMotePipeline returns the tuples the deployment's type sink must
// deliver, in order.
func refMotePipeline(c DeploymentCase) []stream.Tuple {
	boundary := func(k int) time.Time { return epoch0.Add(time.Duration(k) * c.Epoch) }

	// Stages 1+2 — annotate and Point-filter each receptor's trace. A
	// mote trace tuple is (mote_id, temp); annotation prepends the
	// receptor ID and spatial granule.
	type row struct {
		ts time.Time
		v  float64
	}
	filtered := make([][]row, len(c.IDs))
	annotated := make([][]stream.Tuple, len(c.IDs))
	for ri, trace := range c.Traces {
		for _, t := range trace {
			v := t.Values[1].AsFloat()
			if c.PointLimit != 0 && !(v < c.PointLimit) {
				continue
			}
			filtered[ri] = append(filtered[ri], row{ts: t.Ts, v: v})
			vals := append([]stream.Value{stream.String(c.IDs[ri]), stream.String(c.GroupOf[ri])}, t.Values...)
			annotated[ri] = append(annotated[ri], stream.Tuple{Ts: t.Ts, Values: vals})
		}
	}

	// Stage 3 — Smooth: the window (b−G, b] average of each leg's stream
	// at every epoch boundary b, emitted only when the window is non-empty.
	smooth := make([][]row, len(c.IDs))
	if c.SmoothG > 0 {
		for ri := range filtered {
			for k := 1; k <= c.Epochs; k++ {
				b := boundary(k)
				var vals []float64
				for _, rw := range filtered[ri] {
					if rw.ts.After(b.Add(-c.SmoothG)) && !rw.ts.After(b) {
						vals = append(vals, rw.v)
					}
				}
				if len(vals) > 0 {
					smooth[ri] = append(smooth[ri], row{ts: b, v: refSum(vals) / float64(len(vals))})
				}
			}
		}
	}

	// Stage 4 — Merge per proximity group, then sink assembly. The sink
	// order within an epoch follows the processor's node construction
	// order: merge nodes in group first-appearance order, else legs in
	// receptor order; raw pass-through tuples arrive during injection.
	groupOrder := c.groupOrder()
	var out []stream.Tuple
	for k := 1; k <= c.Epochs; k++ {
		b := boundary(k)
		switch {
		case c.MergeKind != 0:
			for _, g := range groupOrder {
				var vals []float64
				for ri := range c.IDs {
					if c.GroupOf[ri] != g {
						continue
					}
					src := filtered[ri]
					if c.SmoothG > 0 {
						src = smooth[ri]
					}
					for _, rw := range src {
						if rw.ts.After(b.Add(-c.MergeG)) && !rw.ts.After(b) {
							vals = append(vals, rw.v)
						}
					}
				}
				if len(vals) == 0 {
					continue
				}
				v := refSum(vals) / float64(len(vals))
				if c.MergeKind == 2 {
					v = refQuantile(vals, 0.5)
				}
				out = append(out, stream.Tuple{Ts: b, Values: []stream.Value{stream.String(g), stream.Float(v)}})
			}
		case c.SmoothG > 0:
			for ri := range c.IDs {
				for _, rw := range smooth[ri] {
					if rw.ts.Equal(b) {
						out = append(out, stream.Tuple{Ts: b, Values: []stream.Value{
							stream.String(c.IDs[ri]), stream.String(c.GroupOf[ri]), stream.Float(rw.v)}})
					}
				}
			}
		default:
			for ri := range c.IDs {
				for _, t := range annotated[ri] {
					if t.Ts.After(b.Add(-c.Epoch)) && !t.Ts.After(b) {
						out = append(out, t)
					}
				}
			}
		}
	}
	return out
}
