package stream

import (
	"fmt"
	"time"
)

// BatchOperator is implemented by operators that can consume a columnar
// Batch at a time. ProcessBatch is the batch analogue of Process: it
// returns the rows produced either still columnar (outB) or materialized
// as tuples (outT) — never both. (nil, nil, nil) means the batch was
// absorbed (or fully filtered).
//
// The returned batch may be owned by the operator (or may be the input
// batch when every row passes through unchanged) and is only valid until
// the operator's next invocation. Punctuation (Advance/Close) always uses
// the tuple path.
type BatchOperator interface {
	Operator
	ProcessBatch(b *Batch) (outB *Batch, outT []Tuple, err error)
}

// BatchDegradeReporter is implemented by composite batch operators
// (Chain, Graph) that may leave the columnar representation internally
// without it being visible in their return values — e.g. a chain whose
// middle operator degrades to tuples and whose final window absorbs
// them, returning (nil, nil, nil). LastBatchDegraded reports whether the
// most recent ProcessBatch/PushBatch invocation degraded anywhere
// inside. It is what lets the executor count batch_fallbacks exactly
// once per columnar delivery, with no blind spots and no double counts.
type BatchDegradeReporter interface {
	LastBatchDegraded() bool
}

// ProcessBatchOp pushes a batch through any operator: the columnar path
// when op implements BatchOperator, otherwise row-at-a-time via Process
// with the rows materialized once.
func ProcessBatchOp(op Operator, b *Batch) (*Batch, []Tuple, error) {
	if bo, ok := op.(BatchOperator); ok {
		return bo.ProcessBatch(b)
	}
	var out []Tuple
	for _, t := range b.Tuples() {
		got, err := op.Process(t)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, got...)
	}
	return nil, out, nil
}

// BatchAdvancer is implemented by operators whose punctuation output can
// stay columnar. AdvanceBatch is the batch analogue of Advance with
// ProcessBatch's output contract: the rows released by the punctuation
// come back columnar (outB) or as tuples (outT), never both, and a
// returned batch is only valid until the operator's next invocation.
type BatchAdvancer interface {
	AdvanceBatch(now time.Time) (outB *Batch, outT []Tuple, err error)
}

// advanceBatchOp punctuates any operator, keeping the released rows
// columnar when op implements BatchAdvancer.
func advanceBatchOp(op Operator, now time.Time) (*Batch, []Tuple, error) {
	if ba, ok := op.(BatchAdvancer); ok {
		return ba.AdvanceBatch(now)
	}
	out, err := op.Advance(now)
	return nil, out, err
}

// LastBatchDegraded implements BatchDegradeReporter.
func (c *Chain) LastBatchDegraded() bool { return c.degraded }

// ProcessBatch implements BatchOperator for Chain: the batch stays
// columnar through consecutive batch-capable operators and degrades to
// the tuple path at the first operator that isn't. Degradation is
// latched in c.degraded even when the tuple tail is absorbed and the
// call returns (nil, nil, nil).
func (c *Chain) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	return c.ProcessBatchRuns(b, nil)
}

// ProcessBatchRuns is ProcessBatch for a batch whose rows the caller has
// already attributed to partitions: when the chain opens with a
// partitioned WindowAgg, runs spares it the per-row partition lookup.
// Any other first operator ignores the vector.
func (c *Chain) ProcessBatchRuns(b *Batch, runs []PartitionRun) (*Batch, []Tuple, error) {
	c.degraded = false
	return c.feedBatch(0, b, runs)
}

// feedBatch pushes a batch through operators i..end (see ProcessBatch).
func (c *Chain) feedBatch(i int, b *Batch, runs []PartitionRun) (*Batch, []Tuple, error) {
	cur := b
	for j := i; j < len(c.Ops); j++ {
		op := c.Ops[j]
		if cur == nil || cur.Len() == 0 {
			return nil, nil, nil
		}
		if w, ok := op.(*WindowAgg); ok && j == i && runs != nil {
			return nil, nil, w.processBatch(cur, runs)
		}
		bop, ok := op.(BatchOperator)
		if !ok {
			c.degraded = true
			out, err := c.feed(j, cur.Tuples())
			return nil, out, err
		}
		nb, nt, err := bop.ProcessBatch(cur)
		if err != nil {
			return nil, nil, err
		}
		if nt != nil {
			c.degraded = true
			out, err := c.feed(j+1, nt)
			return nil, out, err
		}
		if r, ok := op.(BatchDegradeReporter); ok && r.LastBatchDegraded() {
			c.degraded = true
		}
		cur = nb
	}
	if cur != nil && cur.Len() == 0 {
		return nil, nil, nil
	}
	return cur, nil, nil
}

// AdvanceBatch implements BatchAdvancer for Chain: each operator's
// released rows flow through the operators after it — columnar as far as
// those allow — before they see the same punctuation, exactly as Advance
// cascades tuples.
func (c *Chain) AdvanceBatch(now time.Time) (*Batch, []Tuple, error) {
	c.degraded = false
	var resB *Batch
	var resT []Tuple
	for i, op := range c.Ops {
		rb, rt, err := advanceBatchOp(op, now)
		if err != nil {
			return nil, nil, err
		}
		if rb == nil && len(rt) == 0 {
			continue
		}
		if resB != nil {
			// The operators about to run again may own resB's buffer.
			resT, resB = resB.Tuples(), nil
		}
		if rb != nil {
			rb, rt, err = c.feedBatch(i+1, rb, nil)
		} else {
			rt, err = c.feed(i+1, rt)
		}
		if err != nil {
			return nil, nil, err
		}
		if len(resT) == 0 {
			resB, resT = rb, rt
			continue
		}
		if rb != nil {
			rt = rb.Tuples()
		}
		resT = append(resT, rt...)
	}
	return resB, resT, nil
}

// ProcessBatch implements BatchOperator for Filter. When every row passes
// the input batch is returned unchanged (zero copies); otherwise the
// surviving rows are compacted into a reused output batch.
func (f *Filter) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	n := b.Len()
	f.keep = append(f.keep[:0], make([]bool, n)...)
	kept := 0
	for i := 0; i < n; i++ {
		f.scratch = b.CopyRow(i, f.scratch[:0])
		v, err := f.pred(Tuple{Ts: b.RowTs(i), Values: f.scratch})
		if err != nil {
			return nil, nil, fmt.Errorf("stream: filter: %w", err)
		}
		if v.Truthy() {
			f.keep[i] = true
			kept++
		}
	}
	if kept == n {
		return b, nil, nil
	}
	if kept == 0 {
		return nil, nil, nil
	}
	if f.obatch == nil {
		f.obatch = NewBatch(f.out)
	} else {
		f.obatch.Reset(f.out)
	}
	for i := 0; i < n; i++ {
		if f.keep[i] {
			f.obatch.AppendFrom(b, i)
		}
	}
	return f.obatch, nil, nil
}

// ProcessBatch implements BatchOperator for Project. Rows whose computed
// values break column homogeneity flip the whole batch to materialized
// tuples mid-flight (rare: mixed int/float arithmetic results).
func (p *Project) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	if p.obatch == nil {
		p.obatch = NewBatch(p.out)
	} else {
		p.obatch.Reset(p.out)
	}
	n := b.Len()
	var fallback []Tuple
	for i := 0; i < n; i++ {
		p.scratch = b.CopyRow(i, p.scratch[:0])
		t := Tuple{Ts: b.RowTs(i), Values: p.scratch}
		p.rowbuf = p.rowbuf[:0]
		for j, fn := range p.fns {
			v, err := fn(t)
			if err != nil {
				return nil, nil, fmt.Errorf("stream: project %q: %w", p.Exprs[j].Name, err)
			}
			p.rowbuf = append(p.rowbuf, v)
		}
		if fallback == nil {
			if p.obatch.AppendValues(t.Ts, p.rowbuf) {
				continue
			}
			fallback = p.obatch.Tuples()
		}
		fallback = append(fallback, Tuple{Ts: t.Ts, Values: append([]Value(nil), p.rowbuf...)})
	}
	if fallback != nil {
		return nil, fallback, nil
	}
	return p.obatch, nil, nil
}

// ProcessBatch implements BatchOperator for Sample, preserving the
// per-row counter/PRNG call order of the tuple path.
func (s *Sample) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	n := b.Len()
	s.keep = append(s.keep[:0], make([]bool, n)...)
	kept := 0
	for i := 0; i < n; i++ {
		if s.EveryN > 0 {
			if s.count%int64(s.EveryN) == 0 {
				s.keep[i] = true
				kept++
			}
			s.count++
		} else if s.rng.Float64() < s.Fraction {
			s.keep[i] = true
			kept++
		}
	}
	return compactKept(b, s.keep, kept, &s.obatch, s.in)
}

// ProcessBatch implements BatchOperator for Distinct.
func (d *Distinct) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	n := b.Len()
	d.keep = append(d.keep[:0], make([]bool, n)...)
	kept := 0
	for i := 0; i < n; i++ {
		d.scratch = b.CopyRow(i, d.scratch[:0])
		t := Tuple{Ts: b.RowTs(i), Values: d.scratch}
		d.vals = d.vals[:0]
		for j, fn := range d.fns {
			v, err := fn(t)
			if err != nil {
				return nil, nil, fmt.Errorf("stream: distinct %q: %w", d.On[j].Name, err)
			}
			d.vals = append(d.vals, v)
		}
		key := MakeGroupKey(d.vals...)
		if _, dup := d.seen[key]; dup {
			continue
		}
		d.seen[key] = struct{}{}
		d.keep[i] = true
		kept++
	}
	return compactKept(b, d.keep, kept, &d.obatch, d.in)
}

// compactKept returns b unchanged when all rows are kept, nil when none
// are, and otherwise compacts the kept rows into *obatch (allocating it
// on first use).
func compactKept(b *Batch, keep []bool, kept int, obatch **Batch, schema *Schema) (*Batch, []Tuple, error) {
	switch kept {
	case b.Len():
		return b, nil, nil
	case 0:
		return nil, nil, nil
	}
	if *obatch == nil {
		*obatch = NewBatch(schema)
	} else {
		(*obatch).Reset(schema)
	}
	for i := 0; i < b.Len(); i++ {
		if keep[i] {
			(*obatch).AppendFrom(b, i)
		}
	}
	return *obatch, nil, nil
}

// ProcessBatch implements BatchOperator for WindowAgg: rows are absorbed
// into pane accumulators straight off the columns via a reused scratch
// row. Rows that must be retained (pre-punctuation pending, Naive-mode
// buffering) get owned copies.
func (w *WindowAgg) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	return nil, nil, w.processBatch(b, nil)
}

// processBatch absorbs a batch; runs, when non-nil, attributes its rows
// to partitions (see PartitionRun) and is only consulted on the columnar
// path — the row-wise path reads the partition columns.
func (w *WindowAgg) processBatch(b *Batch, runs []PartitionRun) error {
	if w.colsOK && w.started && !w.Naive && w.whereFn == nil {
		return w.absorbBatch(b, runs)
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		w.rowScratch = b.CopyRow(i, w.rowScratch[:0])
		t := Tuple{Ts: b.RowTs(i), Values: w.rowScratch}
		if w.whereFn != nil {
			v, err := w.whereFn(t)
			if err != nil {
				return fmt.Errorf("stream: filter: %w", err)
			}
			if !v.Truthy() {
				continue
			}
		}
		if !w.started || w.Naive {
			t.Values = append([]Value(nil), w.rowScratch...)
			if !w.started {
				w.pending = append(w.pending, t)
				continue
			}
		}
		if err := w.absorb(t); err != nil {
			return err
		}
	}
	return nil
}

// ProcessBatch implements BatchOperator for ArgMax. Process never retains
// the tuple itself (only evaluated values, which are copied), so a reused
// scratch row is safe.
func (a *ArgMax) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	n := b.Len()
	for i := 0; i < n; i++ {
		a.rowScratch = b.CopyRow(i, a.rowScratch[:0])
		if _, err := a.Process(Tuple{Ts: b.RowTs(i), Values: a.rowScratch}); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, nil
}

// LastBatchDegraded implements BatchDegradeReporter.
func (g *Graph) LastBatchDegraded() bool { return g.degraded }

// PushBatch feeds a batch into the named input leg, keeping it columnar
// as far as the operators allow. Output follows the BatchOperator
// contract; tuples routed into an epoch combiner are retained, so they
// are materialized as owned copies. Internal degradation — the leg chain
// or post chain leaving the columnar representation, even when the
// tuples are then absorbed — is latched for LastBatchDegraded. Pushing
// a columnar batch into a combiner leg materializes rows by design
// (combiners retain punctuation-scoped tuples) and does not count.
func (g *Graph) PushBatch(input string, b *Batch) (*Batch, []Tuple, error) {
	g.degraded = false
	leg, ok := g.legs[input]
	if !ok {
		return nil, nil, fmt.Errorf("stream: graph: unknown input %q", input)
	}
	nb, nt, err := leg.chain.ProcessBatch(b)
	if leg.chain.LastBatchDegraded() {
		g.degraded = true
	}
	if err != nil {
		return nil, nil, err
	}
	if nt != nil {
		out, err := g.route(leg, nt)
		return nil, out, err
	}
	if nb == nil || nb.Len() == 0 {
		return nil, nil, nil
	}
	if leg.combineIdx >= 0 {
		for _, t := range nb.Tuples() {
			g.combiner.push(leg.combineIdx, t)
		}
		return nil, nil, nil
	}
	if len(g.post.Ops) == 0 {
		return nb, nil, nil
	}
	ob, ot, err := g.post.ProcessBatch(nb)
	if g.post.LastBatchDegraded() {
		g.degraded = true
	}
	return ob, ot, err
}

// FusedFilterProject is the optimizer's fusion of an adjacent Filter and
// Project pair into one operator: the predicate runs first and the
// projection is only computed for surviving rows, saving an operator hop
// and the intermediate row hand-off (Semantic-Overlap catalog: selection
// and projection commute with composition).
type FusedFilterProject struct {
	Pred  Expr
	Exprs []NamedExpr

	out     *Schema
	pred    EvalFunc
	fns     []EvalFunc
	scratch []Value
	rowbuf  []Value
	obatch  *Batch
}

// Open implements Operator. Error messages match the unfused operators so
// planning diagnostics are unchanged by the rewrite.
func (fp *FusedFilterProject) Open(in *Schema) error {
	k, err := fp.Pred.Bind(in)
	if err != nil {
		return fmt.Errorf("stream: filter: %w", err)
	}
	if k != KindBool && k != KindNull {
		return fmt.Errorf("stream: filter: predicate has kind %s, want bool", k)
	}
	fp.pred = CompileExpr(fp.Pred)
	fields := make([]Field, len(fp.Exprs))
	fp.fns = make([]EvalFunc, len(fp.Exprs))
	for i, ne := range fp.Exprs {
		k, err := ne.Expr.Bind(in)
		if err != nil {
			return fmt.Errorf("stream: project %q: %w", ne.Name, err)
		}
		fields[i] = Field{Name: ne.Name, Kind: k}
		fp.fns[i] = CompileExpr(ne.Expr)
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return fmt.Errorf("stream: project: %w", err)
	}
	fp.out = out
	return nil
}

// Schema implements Operator.
func (fp *FusedFilterProject) Schema() *Schema { return fp.out }

// Process implements Operator.
func (fp *FusedFilterProject) Process(t Tuple) ([]Tuple, error) {
	v, err := fp.pred(t)
	if err != nil {
		return nil, fmt.Errorf("stream: filter: %w", err)
	}
	if !v.Truthy() {
		return nil, nil
	}
	vals := make([]Value, len(fp.Exprs))
	for i, fn := range fp.fns {
		v, err := fn(t)
		if err != nil {
			return nil, fmt.Errorf("stream: project %q: %w", fp.Exprs[i].Name, err)
		}
		vals[i] = v
	}
	return []Tuple{{Ts: t.Ts, Values: vals}}, nil
}

// ProcessBatch implements BatchOperator.
func (fp *FusedFilterProject) ProcessBatch(b *Batch) (*Batch, []Tuple, error) {
	if fp.obatch == nil {
		fp.obatch = NewBatch(fp.out)
	} else {
		fp.obatch.Reset(fp.out)
	}
	n := b.Len()
	var fallback []Tuple
	for i := 0; i < n; i++ {
		fp.scratch = b.CopyRow(i, fp.scratch[:0])
		t := Tuple{Ts: b.RowTs(i), Values: fp.scratch}
		v, err := fp.pred(t)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: filter: %w", err)
		}
		if !v.Truthy() {
			continue
		}
		fp.rowbuf = fp.rowbuf[:0]
		for j, fn := range fp.fns {
			v, err := fn(t)
			if err != nil {
				return nil, nil, fmt.Errorf("stream: project %q: %w", fp.Exprs[j].Name, err)
			}
			fp.rowbuf = append(fp.rowbuf, v)
		}
		if fallback == nil {
			if fp.obatch.AppendValues(t.Ts, fp.rowbuf) {
				continue
			}
			fallback = fp.obatch.Tuples()
		}
		fallback = append(fallback, Tuple{Ts: t.Ts, Values: append([]Value(nil), fp.rowbuf...)})
	}
	if fallback != nil {
		return nil, fallback, nil
	}
	if fp.obatch.Len() == 0 {
		return nil, nil, nil
	}
	return fp.obatch, nil, nil
}

// Advance implements Operator.
func (fp *FusedFilterProject) Advance(time.Time) ([]Tuple, error) { return nil, nil }

// Close implements Operator.
func (fp *FusedFilterProject) Close() ([]Tuple, error) { return nil, nil }
