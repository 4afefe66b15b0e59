package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"esp/internal/stream"
	"esp/internal/telemetry"
)

// dag is the compiled dataflow graph of a Deployment: the nodes in a
// fixed topological order (legs, merges, arbitrates, type outputs,
// virtualize — the order step punctuates them in), the downstream
// adjacency derived from the nodes' declared upstream edges, and the
// receptor→leg fan-out index.
type dag struct {
	p     *Processor
	nodes []node
	// down[i] lists node i's downstream edges in node-index order.
	down [][]downEdge
	// sources[r] lists the legs fed by dep.Receptors[r], in leg
	// construction order — built once at compile time so the per-epoch
	// fan-out is O(legs) instead of O(receptors × legs). staged lists the
	// collapsed legs nodes, which take their input by staging.
	sources [][]source
	staged  []int
	stats   []nodeCounters
	// quarantined[i] marks node i as permanently out of service after a
	// panic under supervision: its input is dropped and it is no longer
	// punctuated. Unlike receptors — external devices that may recover —
	// a panicked node has corrupt operator state, so it never readmits.
	quarantined []atomic.Bool
	// fxPool recycles effects buffers across node invocations (the graph
	// runs tens of thousands per second; steady state their event and
	// emission slices reach capacity and the hot path stops allocating).
	fxPool sync.Pool
}

// getFx returns an empty effects buffer, reusing a pooled one.
func (g *dag) getFx() *effects {
	if v := g.fxPool.Get(); v != nil {
		return v.(*effects)
	}
	return &effects{}
}

// putFx resets and pools an effects buffer. Callers must be done with
// its emissions: delivered slices and batches are safe (reset only drops
// the buffer's own references), but the buffer itself must not be read
// again.
func (g *dag) putFx(fx *effects) {
	fx.reset()
	g.fxPool.Put(fx)
}

// source is one leg a receptor feeds: a per-leg node (member < 0), or
// member member of a collapsed legsNode.
type source struct {
	node   int
	member int
}

// step executes one epoch of the graph on the calling goroutine:
// injection in receptor order (a collapsed legs node taking its whole
// type's batch at the type's first receptor), then punctuation in
// topological node order (legs, merges, arbitrates, outputs, virtualize),
// with every emission cascading depth-first into its downstream nodes
// immediately. On a per-leg graph this reproduces the classic hand-rolled
// Processor loop bit for bit.
func (g *dag) step(now time.Time, batches [][]stream.Tuple) error {
	defer g.dropStaged()
	// Collapsed legs nodes stage their members' runs first; per-leg
	// nodes take their batch in the source pass below.
	for r, ts := range batches {
		if len(ts) == 0 {
			continue
		}
		for _, src := range g.sources[r] {
			if src.member >= 0 {
				g.nodes[src.node].(*legsNode).stage(src.member, ts)
			}
		}
	}
	// Sources run in node order: a per-leg node at its receptor, a
	// collapsed legs node — over everything staged — at its first member.
	for r, ts := range batches {
		for _, src := range g.sources[r] {
			var err error
			switch {
			case src.member == 0:
				err = g.processStaged(src.node)
			case src.member < 0 && len(ts) > 0:
				err = g.processInto(src.node, "", ts)
			}
			if err != nil {
				return err
			}
		}
	}
	for i := range g.nodes {
		if err := g.advanceNode(i, now); err != nil {
			return err
		}
	}
	return nil
}

// dropStaged discards staged runs no node consumed (a failed epoch), so a
// later Step does not replay them.
func (g *dag) dropStaged() {
	for _, i := range g.staged {
		g.nodes[i].(*legsNode).takeStaged()
	}
}

// downEdge routes a node's emitted tuples to a downstream input port.
type downEdge struct {
	to   int
	port string
}

// nodeCounters is the live instrumentation state of one node: handles
// into the processor's telemetry registry, resolved once at wiring time
// so the hot path never does a name lookup. Each entry is written only by
// the goroutine stepping the graph, but snapshots may be taken from other
// goroutines while a run is in flight (a metrics scrape while a served
// tenant steps) — the handles are atomics inside.
// The advance histogram doubles as the per-stage latency distribution
// (p50/p90/p99/max) in the unified snapshot.
type nodeCounters struct {
	tuplesIn, tuplesOut *telemetry.Counter
	panics              *telemetry.Counter
	advance             *telemetry.Histogram
	// batchesIn/batchRows count columnar deliveries (rows also count in
	// tuplesIn, so tuple totals stay representation-independent);
	// batchFallbacks counts deliveries that degraded to the tuple path.
	batchesIn, batchRows *telemetry.Counter
	batchFallbacks       *telemetry.Counter
}

// compileDag inverts the nodes' upstream declarations into the runnable
// graph. The node slice must already be topologically ordered (the
// builder constructs legs, then merges, then arbitrates, then outputs,
// then virtualize, which guarantees it).
func compileDag(p *Processor, nodes []node) (*dag, error) {
	g := &dag{
		p:     p,
		nodes: nodes,
		down:  make([][]downEdge, len(nodes)),
		stats: make([]nodeCounters, len(nodes)),

		quarantined: make([]atomic.Bool, len(nodes)),
	}
	for i, n := range nodes {
		for _, e := range n.upstream() {
			if e.from < 0 || e.from >= i {
				return nil, fmt.Errorf("core: dataflow graph is not topologically ordered: node %d (%s) reads node %d", i, n.label(), e.from)
			}
			g.down[e.from] = append(g.down[e.from], downEdge{to: i, port: e.port})
		}
	}
	// Receptor fan-out index: a receptor's legs appear consecutively in
	// construction order, whichever node serves them.
	byID := make(map[string]int, len(p.dep.Receptors))
	for r, rec := range p.dep.Receptors {
		byID[rec.ID()] = r
	}
	g.sources = make([][]source, len(p.dep.Receptors))
	for i, n := range nodes {
		switch leg := n.(type) {
		case *legNode:
			r, ok := byID[leg.rec.ID()]
			if !ok {
				return nil, fmt.Errorf("core: leg %s has no deployment receptor", leg.label())
			}
			g.sources[r] = append(g.sources[r], source{node: i, member: -1})
		case *legsNode:
			g.staged = append(g.staged, i)
			for mi, m := range leg.members {
				g.sources[m.r] = append(g.sources[m.r], source{node: i, member: mi})
			}
		}
	}
	return g, nil
}

// run invokes one node call on a fresh effects buffer under the panic
// guard, then cascades its effects and emissions depth-first, which
// reproduces the classic Processor's call sequence exactly. A call that
// panicked under supervision leaves its partial effects discarded.
func (g *dag) run(i int, call func(fx *effects) error) error {
	fx := g.getFx()
	ok, err := g.guard(i, func() error { return call(fx) })
	if err == nil && ok {
		err = g.flushCascade(i, fx)
	}
	g.putFx(fx)
	return err
}

// processInto delivers a batch to node i's input port and cascades.
// Quarantined nodes swallow their input.
func (g *dag) processInto(i int, port string, ts []stream.Tuple) error {
	if g.quarantined[i].Load() {
		return nil
	}
	g.stats[i].tuplesIn.Add(int64(len(ts)))
	return g.run(i, func(fx *effects) error { return g.nodes[i].process(port, ts, fx) })
}

// processStaged runs a collapsed legs node over the epoch's staged runs.
func (g *dag) processStaged(i int) error {
	n := g.nodes[i].(*legsNode)
	if n.stagedRows == 0 {
		return nil
	}
	if g.quarantined[i].Load() {
		n.takeStaged()
		return nil
	}
	g.stats[i].tuplesIn.Add(int64(n.stagedRows))
	return g.run(i, func(fx *effects) error { return n.process("", nil, fx) })
}

// processIntoB delivers a columnar batch to node i's input port and
// cascades like processInto. The batch is owned by the upstream operator
// that produced it; the depth-first cascade completes before that
// operator can be invoked again, so no copy is needed.
func (g *dag) processIntoB(i int, port string, b *stream.Batch) error {
	if g.quarantined[i].Load() {
		return nil
	}
	st := &g.stats[i]
	st.batchesIn.Add(1)
	st.batchRows.Add(int64(b.Len()))
	st.tuplesIn.Add(int64(b.Len()))
	return g.run(i, func(fx *effects) error { return g.nodes[i].processBatch(port, b, fx) })
}

// advanceNode punctuates node i and cascades the released output.
// Quarantined nodes are no longer punctuated.
func (g *dag) advanceNode(i int, now time.Time) error {
	if g.quarantined[i].Load() {
		return nil
	}
	return g.run(i, func(fx *effects) error {
		t0 := time.Now()
		// Deferred so a punctuation that panics is still observed.
		defer func() { g.stats[i].advance.Observe(time.Since(t0)) }()
		return g.nodes[i].advance(now, fx)
	})
}

// guard runs one node call with panic isolation. A panic increments the
// node's panic counter; under supervision the node is quarantined and
// the epoch continues (ok=false, nil error), otherwise the panic is
// converted into a labelled error that aborts the Step.
func (g *dag) guard(i int, fn func() error) (ok bool, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		g.stats[i].panics.Add(1)
		if g.p.sup != nil {
			g.quarantined[i].Store(true)
			ok, err = false, nil
			return
		}
		ok, err = false, fmt.Errorf("core: node %s panicked: %v", g.nodes[i].label(), r)
	}()
	return true, fn()
}

// flushCascade runs node i's buffered effects (taps, sinks) and feeds
// its emissions — columnar or tuple-form, in emission order — to every
// downstream edge, recursively.
func (g *dag) flushCascade(i int, fx *effects) error {
	g.flushEvents(fx)
	st := &g.stats[i]
	if fx.fallbacks != 0 {
		st.batchFallbacks.Add(fx.fallbacks)
	}
	for _, e := range fx.outs {
		rows := e.rows()
		if rows == 0 {
			continue
		}
		st.tuplesOut.Add(int64(rows))
		for _, d := range g.down[i] {
			var err error
			if e.b != nil {
				err = g.processIntoB(d.to, d.port, e.b)
			} else {
				err = g.processInto(d.to, d.port, e.ts)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// flushEvents invokes the buffered taps and sink deliveries in emission
// order, on the goroutine stepping the graph.
func (g *dag) flushEvents(fx *effects) {
	for i := range fx.events {
		ev := &fx.events[i]
		if !ev.sink {
			// Stage accounting keys off the non-sink (tap) event only:
			// outNode and virtNode fire both a tap and a sink event for
			// the same tuples, and counting both would double-count.
			g.p.countStage(ev.typ, ev.stage, ev.rows())
			// Materialize the event lazily: only when a tap is actually
			// registered for this (type, stage).
			if fns := g.p.taps[tapKey{typ: ev.typ, stage: ev.stage}]; len(fns) > 0 {
				for _, t := range ev.tuples() {
					for _, fn := range fns {
						fn(t)
					}
				}
			}
			continue
		}
		if ev.stage == StageVirtualize {
			if len(g.p.virtSinks) == 0 {
				continue
			}
			if ev.b != nil {
				ev.ts, ev.b = ev.b.Tuples(), nil
			}
			for _, t := range ev.ts {
				for _, fn := range g.p.virtSinks {
					fn(t)
				}
			}
			continue
		}
		fns := g.p.typeSinks[ev.typ]
		if len(fns) == 0 {
			continue
		}
		if ev.b != nil {
			ev.ts, ev.b = ev.b.Tuples(), nil
		}
		for _, t := range ev.ts {
			for _, fn := range fns {
				fn(t)
			}
		}
	}
}

// NodeStats is a snapshot of one dataflow node's instrumentation
// counters — the hook later observability layers attach to.
type NodeStats struct {
	// Label names the node instance; Kind is "leg", "merge", "arbitrate",
	// "output", or "virtualize".
	Label string
	Kind  string
	// TuplesIn counts tuples delivered to the node (receptor batches for
	// legs); TuplesOut counts tuples the node emitted downstream.
	TuplesIn, TuplesOut int64
	// BatchesIn counts columnar deliveries, BatchRows their summed rows
	// (those rows are also in TuplesIn), and BatchFallbacks deliveries
	// that degraded to the tuple path (column-heterogeneous input).
	BatchesIn, BatchRows, BatchFallbacks int64
	// Advances counts epoch punctuations; AdvanceTime is their summed
	// latency and AdvanceP99 the 99th-percentile single-punctuation
	// latency (upper log-bucket bound, clamped to the observed max).
	Advances    int64
	AdvanceTime time.Duration
	AdvanceP99  time.Duration
	// Panics counts recovered panics in the node's process/advance
	// calls; Quarantined reports whether a panic under supervision has
	// taken the node permanently out of service.
	Panics      int64
	Quarantined bool
}

// NodeStats reports per-node instrumentation in the graph's topological
// node order. Safe to call from any goroutine, including while a Step is
// executing: each counter is read atomically, so the snapshot is a
// consistent point-in-time view of every individual counter (counters
// may be mid-epoch relative to one another).
func (p *Processor) NodeStats() []NodeStats {
	g := p.graph
	out := make([]NodeStats, len(g.nodes))
	for i, n := range g.nodes {
		st := &g.stats[i]
		adv := st.advance.Snapshot()
		out[i] = NodeStats{
			Label:          n.label(),
			Kind:           n.kindName(),
			TuplesIn:       st.tuplesIn.Load(),
			TuplesOut:      st.tuplesOut.Load(),
			BatchesIn:      st.batchesIn.Load(),
			BatchRows:      st.batchRows.Load(),
			BatchFallbacks: st.batchFallbacks.Load(),
			Advances:       adv.Count,
			AdvanceTime:    time.Duration(adv.Sum),
			AdvanceP99:     time.Duration(adv.P99),
			Panics:         st.panics.Load(),
			Quarantined:    g.quarantined[i].Load(),
		}
	}
	return out
}
