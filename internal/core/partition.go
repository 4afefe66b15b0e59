package core

import (
	"fmt"
	"time"

	"esp/internal/cql"
	"esp/internal/receptor"
	"esp/internal/stream"
)

// This file is partitioned stage execution: when a type's Point/Smooth
// plan, or its Merge plan, consists only of row-wise operators and window
// aggregates, the processor builds the stage once for the whole type —
// the partition (receptor_id, spatial_granule for legs; spatial_granule
// for merges) lifted into every aggregate's key by cql.PartitionPlan — and
// the type's legs (or merges) collapse into one dataflow node fed one
// batch per epoch. Partitions are registered in leg / group construction
// order and every punctuation emits partition by partition, so each
// type's sink stream and every tap stream is row for row what the per-leg
// graph produces (DESIGN.md §8).

// legKeys and mergeKeys are the partition columns of the two collapsible
// node kinds.
var (
	legKeys   = []string{ColReceptorID, ColGranule}
	mergeKeys = []string{ColGranule}
)

// linearOps flattens a built stage operator into its operator list when
// the stage is a straight line: a planned single-stream query, a chain
// of such, or one bare operator.
func linearOps(op stream.Operator) ([]stream.Operator, bool) {
	switch o := op.(type) {
	case *graphOp:
		return o.g.Linear()
	case *stream.Chain:
		var out []stream.Operator
		for _, sub := range o.Ops {
			ops, ok := linearOps(sub)
			if !ok {
				return nil, false
			}
			out = append(out, ops...)
		}
		return out, true
	default:
		return []stream.Operator{op}, true
	}
}

// stageProto builds and opens one ordinary instance of a stage — what
// the per-leg graph would instantiate — and returns it with its
// flattened plan.
func stageProto(s Stage, in *stream.Schema, env BuildEnv) (stream.Operator, []stream.Operator, bool) {
	op, err := s.Build(in, env)
	if err != nil || op.Open(in) != nil {
		return nil, nil, false
	}
	ops, ok := linearOps(op)
	return op, ops, ok
}

// partitionStage turns a stage instance's plan into the opened chain
// that serves every partition at once. protoOut is the instance's own
// output schema and in the partitioned chain's input; the chain's output
// must be exactly protoOut with the missing keys prepended — the schema
// the per-leg graph's annotation fix-up produces.
func partitionStage(ops []stream.Operator, keys []string, parts [][]stream.Value, in, protoOut *stream.Schema) (*stream.Chain, bool) {
	pops, ok := cql.PartitionPlan(ops, keys, parts)
	if !ok {
		return nil, false
	}
	chain := stream.NewChain(pops...)
	if chain.Open(in) != nil {
		return nil, false
	}
	want := make([]stream.Field, len(keys))
	for i, k := range keys {
		want[i] = stream.Field{Name: k, Kind: stream.KindString}
	}
	fix, err := newAnnotFix(protoOut, want, make([]stream.Value, len(keys)))
	if err != nil || !fix.schema.Equal(chain.Schema()) {
		return nil, false
	}
	return chain, true
}

// legMember is one (receptor, proximity group) leg served by a legsNode.
type legMember struct {
	r      int // index into dep.Receptors
	rec    receptor.Receptor
	group  string
	prefix []stream.Value // [receptor_id, spatial_granule]
}

// stagedRun is one receptor's polled epoch awaiting the node's batch.
type stagedRun struct {
	member int
	ts     []stream.Tuple
}

// legsNode serves every leg of one receptor type with one partitioned
// Point and one partitioned Smooth. It is a source node: each epoch the
// graph stages the polled tuples of the type's receptors (stage),
// then invokes process once, which packs them into one batch — one
// AppendRun per staged run, whose extents double as the partition run
// vector — and pushes it through the stages.
//
// A panic in the node quarantines it, and with it the Point/Smooth stage
// of the whole type, where the per-leg graph loses one leg.
type legsNode struct {
	typ     receptor.Type
	members []legMember
	inSch   *stream.Schema
	point   *stream.Chain // nil if skipped
	smooth  *stream.Chain // nil if skipped
	out     *stream.Schema
	// pointCarry is the number of key columns the partitioned Point
	// carries in front of what a per-leg Point outputs; Point taps drop
	// them so they see the per-leg rows.
	pointCarry int

	staged     []stagedRun
	stagedRows int
	inBatch    *stream.Batch
	runs       []stream.PartitionRun
}

func (n *legsNode) label() string      { return fmt.Sprintf("legs %s", n.typ) }
func (n *legsNode) kindName() string   { return "leg" }
func (n *legsNode) upstream() []upEdge { return nil }
func (n *legsNode) windowSources() []stream.WindowTelemetrySource {
	var out []stream.WindowTelemetrySource
	if n.point != nil {
		out = append(out, n.point)
	}
	if n.smooth != nil {
		out = append(out, n.smooth)
	}
	return out
}

// stage queues one member's polled epoch for the next process call.
func (n *legsNode) stage(member int, ts []stream.Tuple) {
	n.staged = append(n.staged, stagedRun{member: member, ts: ts})
	n.stagedRows += len(ts)
}

// takeStaged hands over and clears the staged runs.
func (n *legsNode) takeStaged() []stagedRun {
	staged := n.staged
	n.staged, n.stagedRows = n.staged[:0], 0
	return staged
}

func (n *legsNode) resetBatch() {
	if n.inBatch == nil {
		n.inBatch = stream.NewBatch(n.inSch)
	} else {
		n.inBatch.Reset(n.inSch)
	}
	n.runs = n.runs[:0]
}

// process packs the staged runs into the input batch and runs the
// stages. A run whose value kinds conflict with the rows already packed
// closes the batch early and opens the next; a run that is not
// column-homogeneous in itself takes the tuple path (one fallback), as
// the per-leg graph would have for that leg.
func (n *legsNode) process(_ string, _ []stream.Tuple, fx *effects) error {
	n.resetBatch()
	for _, sr := range n.takeStaged() {
		m := &n.members[sr.member]
		if !n.inBatch.AppendRun(m.prefix, sr.ts) {
			if n.inBatch.Len() > 0 {
				if err := n.runBatch(fx); err != nil {
					return err
				}
				// What that emitted may live in inBatch or in buffers the
				// stages reuse on their next call.
				fx.materialize()
				n.resetBatch()
			}
			if !n.inBatch.AppendRun(m.prefix, sr.ts) {
				fx.fallbacks++
				if err := n.runTuples(m, sr.ts, fx); err != nil {
					return err
				}
				continue
			}
		}
		n.runs = append(n.runs, stream.PartitionRun{Part: sr.member, End: n.inBatch.Len()})
	}
	if n.inBatch.Len() == 0 {
		return nil
	}
	return n.runBatch(fx)
}

// processBatch implements node; legs nodes are sources and are never
// delivered to.
func (n *legsNode) processBatch(string, *stream.Batch, *effects) error {
	return fmt.Errorf("core: %s: source node received a delivery", n.label())
}

// runBatch pushes the packed input batch through Point and Smooth.
func (n *legsNode) runBatch(fx *effects) error {
	cur, curT, runs := n.inBatch, []stream.Tuple(nil), n.runs
	degraded := false
	var err error
	if n.point != nil {
		cur, curT, err = n.point.ProcessBatchRuns(cur, runs)
		if err != nil {
			return fmt.Errorf("core: %s Point: %w", n.typ, err)
		}
		degraded = curT != nil || n.point.LastBatchDegraded()
		if cur != n.inBatch {
			runs = nil // rows were dropped or rewritten: the extents are gone
		}
		n.tapPoint(cur, curT, fx)
	}
	if n.smooth != nil {
		if cur != nil {
			cur, curT, err = n.smooth.ProcessBatchRuns(cur, runs)
			degraded = degraded || curT != nil || n.smooth.LastBatchDegraded()
		} else if len(curT) > 0 {
			curT, err = processAll(n.smooth, curT)
		}
		if err != nil {
			return fmt.Errorf("core: %s Smooth: %w", n.typ, err)
		}
	}
	if degraded {
		fx.fallbacks++
	}
	n.emit(cur, curT, fx)
	return nil
}

// runTuples is the row-at-a-time path for one member's run.
func (n *legsNode) runTuples(m *legMember, ts []stream.Tuple, fx *effects) error {
	cur := make([]stream.Tuple, len(ts))
	for i, t := range ts {
		vals := make([]stream.Value, 0, len(m.prefix)+len(t.Values))
		vals = append(append(vals, m.prefix...), t.Values...)
		cur[i] = stream.Tuple{Ts: t.Ts, Values: vals}
	}
	var err error
	if n.point != nil {
		if cur, err = processAll(n.point, cur); err != nil {
			return fmt.Errorf("core: %s Point %q: %w", n.typ, m.rec.ID(), err)
		}
		n.tapPoint(nil, cur, fx)
	}
	if n.smooth != nil {
		if cur, err = processAll(n.smooth, cur); err != nil {
			return fmt.Errorf("core: %s Smooth %q: %w", n.typ, m.rec.ID(), err)
		}
	}
	n.emit(nil, cur, fx)
	return nil
}

// tapPoint records the Point output for taps, without the carried keys.
func (n *legsNode) tapPoint(b *stream.Batch, ts []stream.Tuple, fx *effects) {
	if (b != nil && b.Len() > 0) || len(ts) > 0 {
		fx.events = append(fx.events, effectEvent{typ: n.typ, stage: StagePoint, b: b, ts: ts, skip: n.pointCarry})
	}
}

// advance punctuates the stages: Point's released rows are processed by
// Smooth before Smooth sees the same punctuation.
func (n *legsNode) advance(now time.Time, fx *effects) error {
	var cur *stream.Batch
	var curT []stream.Tuple
	var err error
	if n.point != nil {
		cur, curT, err = n.point.AdvanceBatch(now)
		if err != nil {
			return fmt.Errorf("core: %s Point: %w", n.typ, err)
		}
		n.tapPoint(cur, curT, fx)
	}
	if n.smooth != nil {
		if cur != nil {
			cur, curT, err = n.smooth.ProcessBatch(cur)
		} else if len(curT) > 0 {
			curT, err = processAll(n.smooth, curT)
		}
		if err != nil {
			return fmt.Errorf("core: %s Smooth: %w", n.typ, err)
		}
		if cur != nil {
			// Smooth's punctuation output may reuse this batch's buffer.
			cur, curT = nil, cur.Tuples()
		}
		rb, rt, err := n.smooth.AdvanceBatch(now)
		if err != nil {
			return fmt.Errorf("core: %s Smooth: %w", n.typ, err)
		}
		if len(curT) == 0 {
			cur, curT = rb, rt
		} else {
			if rb != nil {
				rt = rb.Tuples()
			}
			curT = append(curT, rt...)
		}
	}
	n.emit(cur, curT, fx)
	return nil
}

// emit taps the leg output and hands it downstream.
func (n *legsNode) emit(b *stream.Batch, ts []stream.Tuple, fx *effects) {
	if b != nil {
		fx.tapBatch(n.typ, StageSmooth, b)
		fx.emitBatch(b)
		return
	}
	fx.tap(n.typ, StageSmooth, ts)
	fx.emit(ts)
}

// mergesNode serves every proximity group of one receptor type with one
// Merge partitioned by spatial granule. Its upstream edges are the type's
// leg nodes, collapsed or not. A panic quarantines the type's whole Merge
// stage.
type mergesNode struct {
	typ receptor.Type
	op  *stream.Chain
	out *stream.Schema
	ups []upEdge
}

func (n *mergesNode) label() string      { return fmt.Sprintf("merges %s", n.typ) }
func (n *mergesNode) kindName() string   { return "merge" }
func (n *mergesNode) upstream() []upEdge { return n.ups }
func (n *mergesNode) windowSources() []stream.WindowTelemetrySource {
	return []stream.WindowTelemetrySource{n.op}
}

func (n *mergesNode) process(_ string, ts []stream.Tuple, fx *effects) error {
	out, err := processAll(n.op, ts)
	if err != nil {
		return fmt.Errorf("core: %s Merge: %w", n.typ, err)
	}
	n.emit(nil, out, fx)
	return nil
}

func (n *mergesNode) processBatch(_ string, b *stream.Batch, fx *effects) error {
	ob, ot, err := n.op.ProcessBatch(b)
	if err != nil {
		return fmt.Errorf("core: %s Merge: %w", n.typ, err)
	}
	if ot != nil || n.op.LastBatchDegraded() {
		fx.fallbacks++
	}
	n.emit(ob, ot, fx)
	return nil
}

func (n *mergesNode) advance(now time.Time, fx *effects) error {
	ob, ot, err := n.op.AdvanceBatch(now)
	if err != nil {
		return fmt.Errorf("core: %s Merge: %w", n.typ, err)
	}
	n.emit(ob, ot, fx)
	return nil
}

func (n *mergesNode) emit(b *stream.Batch, ts []stream.Tuple, fx *effects) {
	if b != nil {
		fx.tapBatch(n.typ, StageMerge, b)
		fx.emitBatch(b)
		return
	}
	fx.tap(n.typ, StageMerge, ts)
	fx.emit(ts)
}

// collapseLegs tries to build one legsNode for every leg of type t. It
// reports nil when the type keeps per-leg nodes: batching or partitioning
// is disabled, the receptors disagree on their schema, a stage fails to
// build (the per-leg build then reports the error), or a stage's plan is
// not partitionable. The caller also keeps them when the type's Merge
// stage does not collapse (buildLegs).
func (p *Processor) collapseLegs(t receptor.Type) *legsNode {
	if p.dep.DisableBatching || p.dep.DisablePartitioning {
		return nil
	}
	n := &legsNode{typ: t}
	var parts [][]stream.Value
	ids := make(map[string]bool)
	var device *stream.Schema
	for r, rec := range p.dep.Receptors {
		if rec.Type() != t {
			continue
		}
		groups := p.dep.Groups.Of(rec.ID())
		if ids[rec.ID()] || len(groups) == 0 {
			return nil
		}
		ids[rec.ID()] = true
		if device == nil {
			device = rec.Schema()
		} else if !device.Equal(rec.Schema()) {
			return nil
		}
		for _, g := range groups {
			prefix := []stream.Value{stream.String(rec.ID()), stream.String(g)}
			n.members = append(n.members, legMember{r: r, rec: rec, group: g, prefix: prefix})
			parts = append(parts, prefix)
		}
	}
	inSch, err := annotated(device)
	if err != nil {
		return nil
	}
	n.inSch = inSch
	// proto and cur are the per-leg and the partitioned view of the
	// schema between stages: each stage is built as a per-leg instance
	// would be, then lifted.
	proto, cur := inSch, inSch
	lift := func(s Stage) (*stream.Chain, bool) {
		if s == nil {
			return nil, true
		}
		op, ops, ok := stageProto(s, proto, p.env)
		if !ok {
			return nil, false
		}
		chain, ok := partitionStage(ops, legKeys, parts, cur, op.Schema())
		if !ok {
			return nil, false
		}
		proto, cur = op.Schema(), chain.Schema()
		return chain, true
	}
	if pl := p.pipelineFor(t); pl != nil {
		var ok bool
		if n.point, ok = lift(pl.Point); !ok {
			return nil
		}
		n.pointCarry = cur.Len() - proto.Len()
		if n.smooth, ok = lift(pl.Smooth); !ok {
			return nil
		}
	}
	n.out = cur
	return n
}

// collapseMerges tries to build one mergesNode for every proximity group
// of type t; groups lists them in first-leg order and in is the legs'
// shared output schema. It reports nil when the type keeps per-group
// Merge nodes. Unlike a leg's stages, a Merge instance is built with its
// group in the environment, so every group's plan is built and must be
// the same plan.
func (p *Processor) collapseMerges(t receptor.Type, merge Stage, groups []string, in *stream.Schema) *mergesNode {
	if p.dep.DisableBatching || p.dep.DisablePartitioning {
		return nil
	}
	var first stream.Operator
	var plan []stream.Operator
	parts := make([][]stream.Value, len(groups))
	for i, g := range groups {
		parts[i] = []stream.Value{stream.String(g)}
		env := p.env
		env.Group = g
		op, ops, ok := stageProto(merge, in, env)
		if !ok {
			return nil
		}
		if i == 0 {
			first, plan = op, ops
			// Settle eligibility on the first group before building the rest.
			if _, ok := cql.PartitionPlan(ops, mergeKeys, nil); !ok {
				return nil
			}
		} else if !cql.SamePlan(plan, ops) {
			return nil
		}
	}
	chain, ok := partitionStage(plan, mergeKeys, parts, in, first.Schema())
	if !ok {
		return nil
	}
	return &mergesNode{typ: t, op: chain, out: chain.Schema()}
}
