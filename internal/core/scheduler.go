package core

import (
	"runtime"
	"sync"
	"time"

	"esp/internal/stream"
)

// Scheduler is the pluggable execution strategy that drives one epoch of
// the compiled dataflow graph: it must deliver each receptor's polled
// batch to that receptor's leg nodes (staging it on a collapsed legs
// node, which then runs once over everything staged), then advance every
// node in an order consistent with the DAG's topology. The interface is
// sealed — the package's determinism guarantees (delivery in node order,
// user callbacks on the calling goroutine) are invariants implementations
// must uphold, so only SeqScheduler and ParallelScheduler exist.
type Scheduler interface {
	step(g *dag, now time.Time, batches [][]stream.Tuple) error
}

// SeqScheduler executes the whole graph on the calling goroutine:
// injection in receptor order (a collapsed legs node taking its whole
// type's batch at the type's first receptor), then punctuation in
// topological node order (legs, merges, arbitrates, outputs, virtualize),
// with every emission cascading depth-first into its downstream nodes
// immediately. On a per-leg graph this reproduces the classic hand-rolled
// Processor loop bit for bit. It is the default.
type SeqScheduler struct{}

func (SeqScheduler) step(g *dag, now time.Time, batches [][]stream.Tuple) error {
	defer g.dropStaged()
	for r, ts := range batches {
		if len(ts) == 0 {
			continue
		}
		for _, src := range g.sources[r] {
			g.stage(src, ts)
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

// ParallelScheduler executes the graph level by level on a bounded
// worker pool: all nodes of one DAG depth (all legs, then all merges,
// then all arbitrates, …) run concurrently, each buffering its effects
// privately; at the level barrier the scheduler flushes those buffers in
// node order — taps and sinks fire on the calling goroutine, and
// downstream input queues are filled in a deterministic order. Output is
// therefore deterministic run to run, and identical to SeqScheduler for
// epoch-punctuated (windowed) pipelines — asserted for all three example
// deployments by TestSchedulerEquivalence. The difference from
// sequential execution is only internal batching: a node receives its
// upstream epoch output as one queue of batches per upstream node
// instead of interleaved cascades, which windowed stages cannot observe.
type ParallelScheduler struct {
	workers int

	start sync.Once
	stop  sync.Once
	tasks chan func()
	// Per-step state, sized to the graph on first use.
	in   [][]delivery
	fx   []*effects
	errs []error
}

// delivery is one queued input for a node: a columnar batch (b non-nil)
// or a tuple run.
type delivery struct {
	port string
	b    *stream.Batch
	ts   []stream.Tuple
}

// NewParallelScheduler returns a scheduler running at most workers node
// tasks concurrently; workers <= 0 selects GOMAXPROCS. Close it when the
// processor is done to release the pool.
func NewParallelScheduler(workers int) *ParallelScheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelScheduler{workers: workers}
}

// Workers reports the pool bound.
func (s *ParallelScheduler) Workers() int { return s.workers }

// Close stops the worker pool. The scheduler must not be used afterwards.
func (s *ParallelScheduler) Close() {
	s.stop.Do(func() {
		if s.tasks != nil {
			close(s.tasks)
		}
	})
}

func (s *ParallelScheduler) startPool() {
	s.tasks = make(chan func(), s.workers)
	for i := 0; i < s.workers; i++ {
		go func() {
			for f := range s.tasks {
				f()
			}
		}()
	}
}

func (s *ParallelScheduler) step(g *dag, now time.Time, batches [][]stream.Tuple) error {
	s.start.Do(s.startPool)
	defer g.dropStaged()
	if len(s.in) < len(g.nodes) {
		s.in = make([][]delivery, len(g.nodes))
		s.fx = make([]*effects, len(g.nodes))
		s.errs = make([]error, len(g.nodes))
	}
	// Inject the polled batches into the legs' input queues, receptor
	// order first so a leg's queue order matches sequential delivery.
	for r, ts := range batches {
		if len(ts) == 0 {
			continue
		}
		for _, src := range g.sources[r] {
			if !g.stage(src, ts) {
				s.in[src.node] = append(s.in[src.node], delivery{ts: ts})
			}
		}
	}
	for _, level := range g.levels {
		var wg sync.WaitGroup
		for _, i := range level {
			i := i
			wg.Add(1)
			s.tasks <- func() {
				defer wg.Done()
				s.errs[i] = s.runNode(g, i, now)
			}
		}
		wg.Wait()
		for _, i := range level {
			if err := s.errs[i]; err != nil {
				s.reset(g)
				return err
			}
		}
		// Barrier passed: flush effects in node order — user callbacks on
		// this goroutine, downstream queues filled deterministically.
		for _, i := range level {
			fx := s.fx[i]
			s.fx[i] = nil
			s.in[i] = s.in[i][:0]
			if fx == nil {
				continue
			}
			g.flushEvents(fx)
			for _, e := range fx.outs {
				if e.rows() == 0 {
					continue
				}
				for _, d := range g.down[i] {
					s.in[d.to] = append(s.in[d.to], delivery{port: d.port, b: e.b, ts: e.ts})
				}
			}
			// The emissions are copied into downstream queues; the buffer
			// itself is done.
			g.putFx(fx)
		}
	}
	return nil
}

// runNode executes one node's full epoch work: drain the input queue in
// arrival order, then punctuate. Runs on a pool worker; it touches only
// the node's own state, its private effects buffer, and its own stats
// entry.
func (s *ParallelScheduler) runNode(g *dag, i int, now time.Time) error {
	n := g.nodes[i]
	legs, _ := n.(*legsNode)
	if g.quarantined[i].Load() {
		if legs != nil {
			legs.takeStaged()
		}
		return nil // fx[i] stays nil: nothing flushes at the barrier
	}
	fx := g.getFx()
	s.fx[i] = fx
	st := &g.stats[i]
	if legs != nil && legs.stagedRows > 0 {
		st.tuplesIn.Add(int64(legs.stagedRows))
		ok, err := g.guard(i, func() error { return legs.process("", nil, fx) })
		if err != nil {
			return err
		}
		if !ok {
			s.fx[i] = nil
			return nil
		}
	}
	for di, d := range s.in[i] {
		d := d
		if di > 0 {
			// Batches buffered from earlier deliveries are owned by
			// operators this delivery may reinvoke: materialize them
			// before they can be invalidated.
			fx.materialize()
		}
		var ok bool
		var err error
		if d.b != nil {
			st.batchesIn.Add(1)
			st.batchRows.Add(int64(d.b.Len()))
			st.tuplesIn.Add(int64(d.b.Len()))
			ok, err = g.guard(i, func() error { return n.processBatch(d.port, d.b, fx) })
		} else {
			st.tuplesIn.Add(int64(len(d.ts)))
			ok, err = g.guard(i, func() error { return n.process(d.port, d.ts, fx) })
		}
		if err != nil {
			return err
		}
		if !ok {
			// Panicked under supervision: quarantine the node and discard
			// the whole epoch's buffered effects (the sequential path has
			// already cascaded earlier deliveries by this point — the two
			// strategies only agree while no node panics mid-epoch).
			s.fx[i] = nil
			return nil
		}
	}
	t0 := time.Now()
	ok, err := g.guard(i, func() error { return n.advance(now, fx) })
	st.advance.Observe(time.Since(t0))
	if err != nil {
		return err
	}
	if !ok {
		s.fx[i] = nil
		return nil
	}
	var outRows int64
	for j := range fx.outs {
		outRows += int64(fx.outs[j].rows())
	}
	st.tuplesOut.Add(outRows)
	if fx.fallbacks != 0 {
		st.batchFallbacks.Add(fx.fallbacks)
	}
	return nil
}

// reset clears the per-step state after a failed epoch so a later Step
// does not replay stale deliveries.
func (s *ParallelScheduler) reset(g *dag) {
	for i := range g.nodes {
		s.in[i] = s.in[i][:0]
		s.fx[i] = nil
		s.errs[i] = nil
	}
}
