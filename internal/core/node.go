package core

import (
	"fmt"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

// This file defines the dataflow-node abstraction the Processor compiles
// a Deployment into. Every pipeline instance — a (receptor, proximity
// group) leg, a group's Merge, a type's Arbitrate, a type's output
// fan-out, and the cross-type Virtualize query — is one uniform vertex
// in a DAG (dag.go), which steps each epoch depth-first on the calling
// goroutine. Adding a new stage kind means adding one node type, not
// another hand-written loop in the epoch driver.

// upEdge declares one of a node's upstream inputs: tuples emitted by the
// node at index from arrive on this node's input port port. Ports only
// matter for multi-input nodes (Virtualize binds one port per receptor
// type); single-input nodes use "".
type upEdge struct {
	from int
	port string
}

// node is one vertex of the compiled dataflow graph. Nodes never invoke
// user callbacks (taps, sinks) or downstream nodes directly: they record
// every externally observable side effect in the effects buffer, which
// the graph flushes once the invocation returns. That contract makes a
// node invocation all-or-nothing: a call that panics under supervision
// has its partial effects discarded (dag.run).
type node interface {
	// label names the node for instrumentation, e.g. "leg rfid r0@shelf0".
	label() string
	// kindName classifies the node for instrumentation.
	kindName() string
	// upstream declares the node's input edges; the compiler inverts them
	// into the downstream adjacency.
	upstream() []upEdge
	// process consumes a batch of tuples arriving on an input port.
	process(port string, ts []stream.Tuple, fx *effects) error
	// processBatch consumes a columnar batch arriving on an input port —
	// the hot path between stages. Implementations fall back to the tuple
	// representation internally whenever an operator is not batch-capable
	// (stream.ProcessBatchOp), so every node accepts both forms.
	processBatch(port string, b *stream.Batch, fx *effects) error
	// advance punctuates the node at the end of an epoch, after all of its
	// upstream nodes' epoch output has been delivered to it.
	advance(now time.Time, fx *effects) error
	// windowSources lists the node's window-state telemetry sources, for
	// pane-occupancy and late-drop gauges. nil for windowless nodes.
	windowSources() []stream.WindowTelemetrySource
}

// probeWindows collects the window-telemetry sources among ops (nil
// operators are skipped).
func probeWindows(ops ...stream.Operator) []stream.WindowTelemetrySource {
	var out []stream.WindowTelemetrySource
	for _, op := range ops {
		if op == nil {
			continue
		}
		if src, ok := op.(stream.WindowTelemetrySource); ok {
			out = append(out, src)
		}
	}
	return out
}

// effects buffers the externally observable side effects of one node
// invocation: tap events, sink deliveries, and the tuples or batches
// emitted toward downstream nodes.
type effects struct {
	events []effectEvent
	outs   []emission
	// fallbacks counts batch-path degradations inside this invocation
	// (a polled batch that was not column-homogeneous); the graph
	// folds it into the node's batch_fallbacks counter.
	fallbacks int64
}

// emission is one downstream hand-off: either a columnar batch or a
// tuple run, never both. Emission order is preserved — it is the
// delivery order downstream nodes observe.
type emission struct {
	b  *stream.Batch
	ts []stream.Tuple
}

// rows reports the tuple count of the emission.
func (e *emission) rows() int {
	if e.b != nil {
		return e.b.Len()
	}
	return len(e.ts)
}

// effectEvent is one buffered tap call or sink delivery. The tuples may
// be carried columnar (b non-nil) and are only materialized at flush
// time, and only when a matching tap or sink is actually registered.
type effectEvent struct {
	typ   receptor.Type
	stage StageKind
	sink  bool // deliver to sinks instead of taps
	ts    []stream.Tuple
	b     *stream.Batch
	// skip is the number of leading columns observers must not see (the
	// keys a partitioned Point carries past what a per-leg Point emits).
	skip int
}

// tuples materializes the event's rows for observers: owned tuples for a
// columnar event, the leading skip columns dropped.
func (ev *effectEvent) tuples() []stream.Tuple {
	ts := ev.ts
	if ev.b != nil {
		ts = ev.b.Tuples()
	} else if ev.skip > 0 {
		ts = append([]stream.Tuple(nil), ts...)
	}
	if ev.skip > 0 {
		for i := range ts {
			ts[i].Values = ts[i].Values[ev.skip:]
		}
	}
	return ts
}

// rows reports the event's tuple count without materializing a batch.
func (ev *effectEvent) rows() int {
	if ev.b != nil {
		return ev.b.Len()
	}
	return len(ev.ts)
}

func (fx *effects) tap(typ receptor.Type, stage StageKind, ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	fx.events = append(fx.events, effectEvent{typ: typ, stage: stage, ts: ts})
}

func (fx *effects) tapBatch(typ receptor.Type, stage StageKind, b *stream.Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	fx.events = append(fx.events, effectEvent{typ: typ, stage: stage, b: b})
}

func (fx *effects) sink(typ receptor.Type, stage StageKind, ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	fx.events = append(fx.events, effectEvent{typ: typ, stage: stage, sink: true, ts: ts})
}

func (fx *effects) sinkBatch(typ receptor.Type, stage StageKind, b *stream.Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	fx.events = append(fx.events, effectEvent{typ: typ, stage: stage, sink: true, b: b})
}

func (fx *effects) emit(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	// Consecutive tuple emissions coalesce, preserving the classic
	// single-delivery cascade whenever no batch is interleaved.
	if n := len(fx.outs); n > 0 && fx.outs[n-1].b == nil {
		fx.outs[n-1].ts = append(fx.outs[n-1].ts, ts...)
		return
	}
	fx.outs = append(fx.outs, emission{ts: ts})
}

func (fx *effects) emitBatch(b *stream.Batch) {
	if b == nil || b.Len() == 0 {
		return
	}
	fx.outs = append(fx.outs, emission{b: b})
}

// reset empties the buffers for reuse, dropping element references so a
// pooled effects never pins tuple or batch memory.
func (fx *effects) reset() {
	clear(fx.events)
	fx.events = fx.events[:0]
	clear(fx.outs)
	fx.outs = fx.outs[:0]
	fx.fallbacks = 0
}

// materialize converts every buffered batch (events and emissions) into
// owned tuples. A buffered batch is owned by the operator that produced
// it and would be invalidated by that operator's next invocation, so a
// node that invokes its operators again before returning (legsNode
// closing a batch early) materializes what it has buffered first.
func (fx *effects) materialize() {
	for i := range fx.events {
		if ev := &fx.events[i]; ev.b != nil {
			ev.ts, ev.b = ev.b.Tuples(), nil
		}
	}
	for i := range fx.outs {
		if e := &fx.outs[i]; e.b != nil {
			e.ts, e.b = e.b.Tuples(), nil
		}
	}
}

// legNode is one (receptor, proximity group) processing instance: the
// per-receptor Point and Smooth stages plus the annotation fix-up. It is
// a source node — the graph feeds its input port with the receptor's
// polled batch each epoch, annotation columns not yet attached.
type legNode struct {
	rec    receptor.Receptor
	group  string
	typ    receptor.Type
	inSch  *stream.Schema
	point  stream.Operator // nil if skipped
	smooth stream.Operator // nil if skipped
	fix    *annotFix       // re-annotation after the per-receptor stages
	out    *stream.Schema

	// prefix holds the constant annotation values [receptor_id, granule]
	// prepended to every polled tuple; inBatch is the reused columnar
	// batch the polled epoch is packed into, and advBatch the reused
	// batch the punctuation output is re-annotated into.
	// noBatch pins the leg to the tuple path (Deployment.DisableBatching
	// — batches originate only at leg and merge nodes, all gated by it).
	prefix   []stream.Value
	inBatch  *stream.Batch
	advBatch *stream.Batch
	noBatch  bool
}

func (n *legNode) label() string {
	return fmt.Sprintf("leg %s %s@%s", n.typ, n.rec.ID(), n.group)
}
func (n *legNode) kindName() string   { return "leg" }
func (n *legNode) upstream() []upEdge { return nil }
func (n *legNode) windowSources() []stream.WindowTelemetrySource {
	return probeWindows(n.point, n.smooth)
}

func (n *legNode) process(_ string, ts []stream.Tuple, fx *effects) error {
	if n.noBatch || len(n.prefix) == 0 || len(ts) == 0 {
		return n.processTuples(ts, fx)
	}
	if n.inBatch == nil {
		n.inBatch = stream.NewBatch(n.inSch)
	} else {
		n.inBatch.Reset(n.inSch)
	}
	if !n.inBatch.AppendRun(n.prefix, ts) {
		// The polled epoch is not column-homogeneous: degrade the whole
		// delivery to the tuple path (the batch was left unmodified).
		fx.fallbacks++
		return n.processTuples(ts, fx)
	}
	cur, curT := n.inBatch, []stream.Tuple(nil)
	var err error
	if n.point != nil {
		cur, curT, err = stream.ProcessBatchOp(n.point, cur)
		if err != nil {
			return fmt.Errorf("core: %s Point %q: %w", n.typ, n.rec.ID(), err)
		}
		if cur != nil {
			fx.tapBatch(n.typ, StagePoint, cur)
		} else {
			fx.tap(n.typ, StagePoint, curT)
		}
	}
	if n.smooth != nil {
		if cur != nil {
			cur, curT, err = stream.ProcessBatchOp(n.smooth, cur)
		} else if len(curT) > 0 {
			curT, err = processAll(n.smooth, curT)
		}
		if err != nil {
			return fmt.Errorf("core: %s Smooth %q: %w", n.typ, n.rec.ID(), err)
		}
	}
	if cur != nil {
		n.emitB(cur, fx)
	} else {
		n.emit(curT, fx)
	}
	return nil
}

// processBatch implements node. Legs are source nodes — the graph
// injects polled tuples, never batches — so this only exists to satisfy
// the interface and simply materializes.
func (n *legNode) processBatch(_ string, b *stream.Batch, fx *effects) error {
	return n.process("", b.Tuples(), fx)
}

// processTuples is the classic row-at-a-time path, kept bit-compatible
// with the pre-columnar processor: it is the fallback for disabled
// batching and for polled epochs that cannot be packed columnar.
func (n *legNode) processTuples(ts []stream.Tuple, fx *effects) error {
	for _, t := range ts {
		annot := make([]stream.Value, 0, 2+len(t.Values))
		annot = append(annot, stream.String(n.rec.ID()), stream.String(n.group))
		annot = append(annot, t.Values...)
		cur := []stream.Tuple{{Ts: t.Ts, Values: annot}}
		var err error
		if n.point != nil {
			cur, err = processAll(n.point, cur)
			if err != nil {
				return fmt.Errorf("core: %s Point %q: %w", n.typ, n.rec.ID(), err)
			}
			fx.tap(n.typ, StagePoint, cur)
		}
		if n.smooth != nil {
			cur, err = processAll(n.smooth, cur)
			if err != nil {
				return fmt.Errorf("core: %s Smooth %q: %w", n.typ, n.rec.ID(), err)
			}
		}
		n.emit(cur, fx)
	}
	return nil
}

// advance punctuates the leg: Point's released tuples are processed by
// Smooth before Smooth sees the same punctuation.
func (n *legNode) advance(now time.Time, fx *effects) error {
	var pending []stream.Tuple
	if n.point != nil {
		released, err := n.point.Advance(now)
		if err != nil {
			return fmt.Errorf("core: %s Point %q: %w", n.typ, n.rec.ID(), err)
		}
		fx.tap(n.typ, StagePoint, released)
		pending = released
	}
	if n.smooth != nil {
		var out []stream.Tuple
		if len(pending) > 0 {
			processed, err := processAll(n.smooth, pending)
			if err != nil {
				return fmt.Errorf("core: %s Smooth %q: %w", n.typ, n.rec.ID(), err)
			}
			out = processed
		}
		released, err := n.smooth.Advance(now)
		if err != nil {
			return fmt.Errorf("core: %s Smooth %q: %w", n.typ, n.rec.ID(), err)
		}
		if len(out) == 0 {
			out = released
		} else {
			out = append(out, released...)
		}
		n.emitAdv(out, fx)
		return nil
	}
	n.emitAdv(pending, fx)
	return nil
}

// emit re-annotates the per-receptor output and hands it downstream.
func (n *legNode) emit(ts []stream.Tuple, fx *effects) {
	if len(ts) == 0 {
		return
	}
	fixed := n.fix.apply(ts)
	fx.tap(n.typ, StageSmooth, fixed)
	fx.emit(fixed)
}

// emitAdv is emit for the punctuation output: the re-annotation is
// packed columnar into a reused batch instead of allocating annotated
// tuples. Called at most once per advance, so the emitted batch stays
// valid until the leg's next invocation.
func (n *legNode) emitAdv(ts []stream.Tuple, fx *effects) {
	if len(ts) == 0 {
		return
	}
	if n.noBatch || len(n.fix.prepend) == 0 {
		n.emit(ts, fx)
		return
	}
	if n.advBatch == nil {
		n.advBatch = stream.NewBatch(n.fix.schema)
	} else {
		n.advBatch.Reset(n.fix.schema)
	}
	if !n.advBatch.AppendRun(n.fix.prepend, ts) {
		fx.fallbacks++
		n.emit(ts, fx)
		return
	}
	fx.tapBatch(n.typ, StageSmooth, n.advBatch)
	fx.emitBatch(n.advBatch)
}

// emitB is emit for a still-columnar output. When re-annotation would
// change the row arity the batch is materialized and takes the tuple
// path; otherwise it is handed downstream columnar.
func (n *legNode) emitB(b *stream.Batch, fx *effects) {
	if b == nil || b.Len() == 0 {
		return
	}
	if len(n.fix.prepend) != 0 {
		n.emit(b.Tuples(), fx)
		return
	}
	fx.tapBatch(n.typ, StageSmooth, b)
	fx.emitBatch(b)
}

// mergeNode is one proximity group's Merge instance; its upstream edges
// are the group members' legs.
type mergeNode struct {
	group string
	typ   receptor.Type
	op    stream.Operator
	fix   *annotFix
	out   *stream.Schema
	ups   []upEdge

	// advBatch re-annotates the punctuation output columnar (see
	// legNode.emitAdv); noBatch mirrors Deployment.DisableBatching.
	advBatch *stream.Batch
	noBatch  bool
}

func (n *mergeNode) label() string {
	return fmt.Sprintf("merge %s %s", n.typ, n.group)
}
func (n *mergeNode) kindName() string   { return "merge" }
func (n *mergeNode) upstream() []upEdge { return n.ups }
func (n *mergeNode) windowSources() []stream.WindowTelemetrySource {
	return probeWindows(n.op)
}

func (n *mergeNode) process(_ string, ts []stream.Tuple, fx *effects) error {
	out, err := processAll(n.op, ts)
	if err != nil {
		return fmt.Errorf("core: %s Merge %q: %w", n.typ, n.group, err)
	}
	n.emit(out, fx)
	return nil
}

func (n *mergeNode) processBatch(_ string, b *stream.Batch, fx *effects) error {
	ob, ot, err := stream.ProcessBatchOp(n.op, b)
	if err != nil {
		return fmt.Errorf("core: %s Merge %q: %w", n.typ, n.group, err)
	}
	if shimDegraded(n.op, ot) {
		fx.fallbacks++
	}
	if ob != nil {
		n.emitB(ob, fx)
		return nil
	}
	n.emit(ot, fx)
	return nil
}

func (n *mergeNode) advance(now time.Time, fx *effects) error {
	released, err := n.op.Advance(now)
	if err != nil {
		return fmt.Errorf("core: %s Merge %q: %w", n.typ, n.group, err)
	}
	n.emitAdv(released, fx)
	return nil
}

// emitAdv packs the punctuation output's re-annotation columnar into a
// reused batch. Called at most once per advance (see legNode.emitAdv).
func (n *mergeNode) emitAdv(ts []stream.Tuple, fx *effects) {
	if len(ts) == 0 {
		return
	}
	if n.noBatch || len(n.fix.prepend) == 0 {
		n.emit(ts, fx)
		return
	}
	if n.advBatch == nil {
		n.advBatch = stream.NewBatch(n.fix.schema)
	} else {
		n.advBatch.Reset(n.fix.schema)
	}
	if !n.advBatch.AppendRun(n.fix.prepend, ts) {
		fx.fallbacks++
		n.emit(ts, fx)
		return
	}
	fx.tapBatch(n.typ, StageMerge, n.advBatch)
	fx.emitBatch(n.advBatch)
}

// emit re-annotates the Merge output and hands it downstream.
func (n *mergeNode) emit(ts []stream.Tuple, fx *effects) {
	if len(ts) == 0 {
		return
	}
	fixed := n.fix.apply(ts)
	fx.tap(n.typ, StageMerge, fixed)
	fx.emit(fixed)
}

// emitB is emit for a still-columnar Merge output; re-annotation forces
// the tuple path (it changes the row arity).
func (n *mergeNode) emitB(b *stream.Batch, fx *effects) {
	if b == nil || b.Len() == 0 {
		return
	}
	if len(n.fix.prepend) != 0 {
		n.emit(b.Tuples(), fx)
		return
	}
	fx.tapBatch(n.typ, StageMerge, b)
	fx.emitBatch(b)
}

// arbNode is one type's Arbitrate instance; its upstream edges are the
// type's Merge nodes (or its legs when the type has no Merge stage).
type arbNode struct {
	typ receptor.Type
	op  stream.Operator
	out *stream.Schema
	ups []upEdge
}

func (n *arbNode) label() string      { return fmt.Sprintf("arbitrate %s", n.typ) }
func (n *arbNode) kindName() string   { return "arbitrate" }
func (n *arbNode) upstream() []upEdge { return n.ups }
func (n *arbNode) windowSources() []stream.WindowTelemetrySource {
	return probeWindows(n.op)
}

func (n *arbNode) process(_ string, ts []stream.Tuple, fx *effects) error {
	out, err := processAll(n.op, ts)
	if err != nil {
		return fmt.Errorf("core: %s Arbitrate: %w", n.typ, err)
	}
	fx.emit(out)
	return nil
}

func (n *arbNode) processBatch(_ string, b *stream.Batch, fx *effects) error {
	ob, ot, err := stream.ProcessBatchOp(n.op, b)
	if err != nil {
		return fmt.Errorf("core: %s Arbitrate: %w", n.typ, err)
	}
	if shimDegraded(n.op, ot) {
		fx.fallbacks++
	}
	fx.emitBatch(ob)
	fx.emit(ot)
	return nil
}

func (n *arbNode) advance(now time.Time, fx *effects) error {
	released, err := n.op.Advance(now)
	if err != nil {
		return fmt.Errorf("core: %s Arbitrate: %w", n.typ, err)
	}
	fx.emit(released)
	return nil
}

// outNode is the terminal per-type vertex: it fans the type's cleaned
// stream out to the registered sinks and forwards it to the Virtualize
// node when the type is bound there. StageArbitrate taps fire here even
// for types with no Arbitrate stage, preserving the classic emitType
// contract.
type outNode struct {
	typ receptor.Type
	ups []upEdge
}

func (n *outNode) label() string                                 { return fmt.Sprintf("output %s", n.typ) }
func (n *outNode) kindName() string                              { return "output" }
func (n *outNode) upstream() []upEdge                            { return n.ups }
func (n *outNode) windowSources() []stream.WindowTelemetrySource { return nil }

func (n *outNode) process(_ string, ts []stream.Tuple, fx *effects) error {
	fx.tap(n.typ, StageArbitrate, ts)
	fx.sink(n.typ, StageArbitrate, ts)
	fx.emit(ts)
	return nil
}

func (n *outNode) processBatch(_ string, b *stream.Batch, fx *effects) error {
	fx.tapBatch(n.typ, StageArbitrate, b)
	fx.sinkBatch(n.typ, StageArbitrate, b)
	fx.emitBatch(b)
	return nil
}

func (n *outNode) advance(time.Time, *effects) error { return nil }

// virtNode executes the deployment's Virtualize query; its upstream
// edges are the output nodes of the bound types, one input port per
// bound stream name.
type virtNode struct {
	g   *stream.Graph
	ups []upEdge
}

func (n *virtNode) label() string      { return "virtualize" }
func (n *virtNode) kindName() string   { return "virtualize" }
func (n *virtNode) upstream() []upEdge { return n.ups }
func (n *virtNode) windowSources() []stream.WindowTelemetrySource {
	return []stream.WindowTelemetrySource{n.g}
}

func (n *virtNode) process(port string, ts []stream.Tuple, fx *effects) error {
	for _, t := range ts {
		out, err := n.g.Push(port, t)
		if err != nil {
			return fmt.Errorf("core: Virtualize: %w", err)
		}
		n.emit(out, fx)
	}
	return nil
}

func (n *virtNode) processBatch(port string, b *stream.Batch, fx *effects) error {
	ob, ot, err := n.g.PushBatch(port, b)
	if err != nil {
		return fmt.Errorf("core: Virtualize: %w", err)
	}
	if ot != nil || n.g.LastBatchDegraded() {
		fx.fallbacks++
	}
	if ob != nil && ob.Len() > 0 {
		fx.tapBatch("", StageVirtualize, ob)
		fx.sinkBatch("", StageVirtualize, ob)
		fx.emitBatch(ob)
		return nil
	}
	n.emit(ot, fx)
	return nil
}

func (n *virtNode) advance(now time.Time, fx *effects) error {
	out, err := n.g.Advance(now)
	if err != nil {
		return fmt.Errorf("core: Virtualize: %w", err)
	}
	n.emit(out, fx)
	return nil
}

func (n *virtNode) emit(ts []stream.Tuple, fx *effects) {
	if len(ts) == 0 {
		return
	}
	fx.tap("", StageVirtualize, ts)
	fx.sink("", StageVirtualize, ts)
	fx.emit(ts)
}

// shimDegraded reports whether one columnar delivery to op left the
// batch path: op has no batch implementation at all (the row-at-a-time
// ProcessBatchOp shim ran), the delivery's output came back in tuple
// form, or a composite op latched an internal degradation (degrade-then-
// absorb, invisible in the return values). Callers increment the
// fallback counter AT MOST ONCE per delivery off this single predicate —
// the operators themselves never touch the counter, so a chain that
// degrades once cannot be counted again by the node that owns it, and a
// delivery that degrades at one node is never re-counted downstream
// (downstream sees a tuple delivery, which takes the tuple path).
func shimDegraded(op stream.Operator, ot []stream.Tuple) bool {
	if _, ok := op.(stream.BatchOperator); !ok {
		return true
	}
	if ot != nil {
		return true
	}
	r, ok := op.(stream.BatchDegradeReporter)
	return ok && r.LastBatchDegraded()
}

func processAll(op stream.Operator, ts []stream.Tuple) ([]stream.Tuple, error) {
	var out []stream.Tuple
	for _, t := range ts {
		got, err := op.Process(t)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}
