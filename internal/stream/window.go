package stream

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// WindowTelemetrySource exposes a window operator's live state for
// telemetry snapshots: the number of open panes and the count of late
// tuples dropped. Implementations must make both values safe to read
// from a goroutine other than the one processing tuples (the processor
// polls them via gauge functions while a run is in flight). Chain and
// Graph implement it by summing over their contained operators.
type WindowTelemetrySource interface {
	WindowTelemetry() (panes, lateDrops int64)
}

// WindowAgg is a sliding-window GROUP BY aggregation: the workhorse behind
// the paper's Smooth and Merge stages and behind every `[Range By 'd']`
// CQL query.
//
// Window semantics: boundaries lie at origin + k*Slide, where origin is the
// time of the first punctuation the operator receives. The window ending at
// boundary b covers tuples with Ts in (b-Range, b]; results are emitted with
// Ts = b. A Range of zero denotes the paper's `[Range By 'NOW']` window and
// is interpreted as "the current epoch", i.e. Range = Slide.
//
// Implementation (slotkernel.go): every distinct (partition, group values)
// pair is interned once into a dense integer slot; tuples are folded into
// per-pane, slot-indexed partial aggregates (panes of size gcd(Range,
// Slide)); a window result merges the panes it spans, so sliding emission
// costs O(groups × panes) instead of O(tuples). Setting Naive re-aggregates
// the buffered tuples from scratch on each emission, sharing only the key
// encoding and the group order with the kernel; the two modes are verified
// equivalent by property tests and compared by the BenchmarkAblationPanes
// benchmark.
//
// Group identity: two rows are in the same group when their group values
// have the same kind and value; −0 and +0 are one group (reported as 0),
// all NaNs are one group, and timestamps are compared as instants.
type WindowAgg struct {
	GroupBy []NamedExpr
	Aggs    []AggSpec
	// Range is the window length (temporal granule); zero means NOW.
	Range time.Duration
	// Slide is the emission period. It must be positive.
	Slide time.Duration
	// Having, if non-nil, filters output rows; it is bound against the
	// output schema.
	Having Expr
	// Where, if non-nil, filters input rows before they touch any window
	// state — the optimizer's fusion target for a Filter immediately
	// preceding the aggregation. It is bound against the input schema and
	// applied before pre-punctuation buffering, so Close's origin anchor
	// (the last pending tuple's timestamp) matches the unfused plan.
	Where Expr
	// EmitEmpty controls whether a boundary with no live groups emits a
	// row. It only applies to global aggregation (no GROUP BY), where SQL
	// semantics produce one row even over empty input.
	EmitEmpty bool
	// Naive selects the re-aggregating implementation (for ablation).
	Naive bool
	// PartitionBy names input columns that split the stream into
	// independent partitions: the operator computes, in one instance, what
	// one instance per distinct value of these columns would. Output rows
	// carry the partition columns GroupBy does not already produce, in
	// front of the group columns. One punctuation's output is the
	// partitions' outputs one after the other in Partitions' order: for
	// each partition its boundaries in time order, the groups sorted inside
	// each. EmitEmpty applies per partition.
	PartitionBy []string
	// Partitions lists every partition value (one per PartitionBy column
	// each), fixing their emission order and the indexes a PartitionRun
	// refers to. A row of any other partition is an error.
	Partitions [][]Value

	in, out  *Schema
	argKinds []Kind
	pane     time.Duration
	origin   time.Time
	started  bool
	nextEmit time.Time
	pending  []Tuple // tuples seen before the first punctuation
	buffer   []Tuple // Naive mode: live tuples

	groupFns   []EvalFunc
	argFns     []EvalFunc // nil entries for count(*)
	havingFn   EvalFunc
	whereFn    EvalFunc
	pscratch   []Value // reused per-tuple partition-value buffer
	gscratch   []Value // reused per-tuple group-value buffer
	rowScratch []Value // reused batch-row / output-row buffer
	// partCols holds the input column index of each PartitionBy entry;
	// frontCols lists the PartitionBy positions emitted in front (those
	// no GroupBy output already names).
	partCols  []int
	frontCols []int
	// Columnar fast path: when every GROUP BY expression and aggregate
	// argument is a bare column reference, rows of a Batch are absorbed
	// straight off the columns — no scratch tuple, no EvalFunc call.
	// groupCols/argCols hold the resolved column indexes (-1 for
	// count(*)); colsOK reports the precondition holds.
	groupCols []int
	argCols   []int
	colsOK    bool
	// aggFloatable[k] marks aggregate k eligible for the unboxed float
	// kernel (non-DISTINCT and not min/max); batchArgs is the per-call
	// scratch of resolved argument columns.
	aggFloatable []bool
	batchArgs    []batchArg

	slotKernel

	// obatch is the reused columnar boundary result; outT replaces it for
	// the rest of an emission once a result row breaks column homogeneity.
	// outPart holds each emitted row's partition and oswap is the second
	// buffer of partitionMajor, both only for a partitioned operator.
	obatch, oswap *Batch
	outT          []Tuple
	outPart       []int32

	// Dropped counts late tuples discarded because every window that
	// could contain them (boundary ≥ nextEmit, covering (b−Range, b])
	// had already been emitted.
	Dropped int64
	// livePanes and lateDrops mirror len(panes) and Dropped atomically so
	// telemetry gauges can read them mid-run without racing the operator.
	livePanes atomic.Int64
	lateDrops atomic.Int64
}

// WindowTelemetry implements WindowTelemetrySource. In Naive mode the
// pane count is always zero (tuples are buffered whole, not paned).
func (w *WindowAgg) WindowTelemetry() (panes, lateDrops int64) {
	return w.livePanes.Load(), w.lateDrops.Load()
}

// Open implements Operator.
func (w *WindowAgg) Open(in *Schema) error {
	if w.Slide <= 0 {
		return fmt.Errorf("stream: window: slide must be positive, got %v", w.Slide)
	}
	if w.Range < 0 {
		return fmt.Errorf("stream: window: negative range %v", w.Range)
	}
	if w.Range == 0 { // [Range By 'NOW']
		w.Range = w.Slide
	}
	w.pane = gcdDuration(w.Range, w.Slide)
	w.in = in

	if w.Where != nil {
		// Bind and report errors exactly as the standalone Filter the
		// optimizer fused away would have, so diagnostics are unchanged.
		k, err := w.Where.Bind(in)
		if err != nil {
			return fmt.Errorf("stream: filter: %w", err)
		}
		if k != KindBool && k != KindNull {
			return fmt.Errorf("stream: filter: predicate has kind %s, want bool", k)
		}
		w.whereFn = CompileExpr(w.Where)
	}

	groupNames := make(map[string]bool, len(w.GroupBy))
	for _, g := range w.GroupBy {
		groupNames[strings.ToLower(g.Name)] = true
	}
	fields := make([]Field, 0, len(w.PartitionBy)+len(w.GroupBy)+len(w.Aggs))
	w.partCols = make([]int, len(w.PartitionBy))
	w.frontCols = w.frontCols[:0]
	for i, name := range w.PartitionBy {
		ci, ok := in.Index(name)
		if !ok {
			return fmt.Errorf("stream: window partition: unknown column %q in %s", name, in)
		}
		w.partCols[i] = ci
		if !groupNames[strings.ToLower(name)] {
			w.frontCols = append(w.frontCols, i)
			fields = append(fields, in.Field(ci))
		}
	}
	w.groupFns = make([]EvalFunc, len(w.GroupBy))
	w.groupCols = make([]int, len(w.GroupBy))
	w.colsOK = true
	for i, g := range w.GroupBy {
		k, err := g.Expr.Bind(in)
		if err != nil {
			return fmt.Errorf("stream: window group %q: %w", g.Name, err)
		}
		fields = append(fields, Field{Name: g.Name, Kind: k})
		w.groupFns[i] = CompileExpr(g.Expr)
		if c, ok := g.Expr.(*Col); ok {
			w.groupCols[i] = c.idx
		} else {
			w.colsOK = false
		}
	}
	w.argKinds = make([]Kind, len(w.Aggs))
	w.argFns = make([]EvalFunc, len(w.Aggs))
	w.argCols = make([]int, len(w.Aggs))
	w.aggFloatable = make([]bool, len(w.Aggs))
	for i, a := range w.Aggs {
		argKind := KindNull
		w.argCols[i] = -1
		w.aggFloatable[i] = !a.Distinct && a.Func != AggMin && a.Func != AggMax
		if a.Arg != nil {
			k, err := a.Arg.Bind(in)
			if err != nil {
				return fmt.Errorf("stream: window agg %s: %w", a, err)
			}
			argKind = k
			w.argFns[i] = CompileExpr(a.Arg)
			if c, ok := a.Arg.(*Col); ok {
				w.argCols[i] = c.idx
			} else {
				w.colsOK = false
			}
		} else if a.Func != AggCount {
			return fmt.Errorf("stream: window agg %s: only count may omit its argument", a)
		}
		w.argKinds[i] = argKind
		rk, err := a.resultKind(argKind)
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: a.Name, Kind: rk})
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return fmt.Errorf("stream: window: %w", err)
	}
	w.out = out
	if w.Having != nil {
		k, err := w.Having.Bind(out)
		if err != nil {
			return fmt.Errorf("stream: window having: %w", err)
		}
		if k != KindBool && k != KindNull {
			return fmt.Errorf("stream: window having: kind %s, want bool", k)
		}
		w.havingFn = CompileExpr(w.Having)
	}
	return w.initKernel()
}

// Schema implements Operator.
func (w *WindowAgg) Schema() *Schema { return w.out }

// Process implements Operator.
func (w *WindowAgg) Process(t Tuple) ([]Tuple, error) {
	if w.whereFn != nil {
		v, err := w.whereFn(t)
		if err != nil {
			return nil, fmt.Errorf("stream: filter: %w", err)
		}
		if !v.Truthy() {
			return nil, nil
		}
	}
	if !w.started {
		w.pending = append(w.pending, t)
		return nil, nil
	}
	return nil, w.absorb(t)
}

// late reports whether ts lies at or before the left edge of the earliest
// unemitted window (nextEmit−Range, nextEmit]: no window with boundary ≥
// nextEmit can contain it. The edge itself is excluded — pane semantics
// are (b−Range, b]. Both modes apply the same test so the Dropped counter
// agrees between them.
func (w *WindowAgg) late(ts time.Time) bool {
	return !w.nextEmit.IsZero() && !ts.After(w.nextEmit.Add(-w.Range))
}

func (w *WindowAgg) drop() {
	w.Dropped++
	w.lateDrops.Add(1)
}

// rowPartition returns the index of a tuple's partition.
func (w *WindowAgg) rowPartition(t Tuple) (int32, error) {
	if len(w.partCols) == 0 {
		return 0, nil
	}
	w.pscratch = w.pscratch[:0]
	for _, ci := range w.partCols {
		w.pscratch = append(w.pscratch, t.Values[ci])
	}
	return w.partitionOf(w.pscratch)
}

// rowKeys evaluates a tuple's partition index and group values (the
// latter into gscratch).
func (w *WindowAgg) rowKeys(t Tuple) (int32, []Value, error) {
	p, err := w.rowPartition(t)
	if err != nil {
		return 0, nil, err
	}
	w.gscratch = w.gscratch[:0]
	for i, g := range w.GroupBy {
		v, err := w.groupFns[i](t)
		if err != nil {
			return 0, nil, fmt.Errorf("stream: window group %q: %w", g.Name, err)
		}
		w.gscratch = append(w.gscratch, v)
	}
	return p, w.gscratch, nil
}

// addRow folds one tuple's aggregate arguments into a cell.
func (w *WindowAgg) addRow(accs []accum, t Tuple) error {
	for i, a := range w.Aggs {
		if a.Arg == nil {
			accs[i].add(Null(), true)
			continue
		}
		v, err := w.argFns[i](t)
		if err != nil {
			return fmt.Errorf("stream: window agg %s: %w", a, err)
		}
		accs[i].add(v, false)
	}
	return nil
}

func (w *WindowAgg) absorb(t Tuple) error {
	if w.late(t.Ts) {
		w.drop()
		return nil
	}
	if w.Naive {
		// Both modes refuse an unregistered partition on arrival.
		if _, err := w.rowPartition(t); err != nil {
			return err
		}
		w.buffer = append(w.buffer, t)
		return nil
	}
	p, g, err := w.rowKeys(t)
	if err != nil {
		return err
	}
	pn := w.paneAt(w.paneIndex(t.Ts))
	return w.addRow(w.cell(pn, w.slotOf(p, g)), t)
}

// batchArg is absorbBatch's resolved view of one aggregate argument.
type batchArg struct {
	col  *Column // nil for count(*)
	fast bool    // unboxed float kernel applies
}

// paneIndex returns the index of the pane containing ts: pane j covers
// (origin+(j-1)*pane, origin+j*pane].
func (w *WindowAgg) paneIndex(ts time.Time) int64 {
	d := ts.Sub(w.origin)
	return ceilDiv(int64(d), int64(w.pane))
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

func gcdDuration(a, b time.Duration) time.Duration {
	x, y := int64(a), int64(b)
	for y != 0 {
		x, y = y, x%y
	}
	return time.Duration(x)
}

// start anchors the window grid at origin and absorbs the tuples buffered
// before it was known.
func (w *WindowAgg) start(origin time.Time) error {
	w.started = true
	w.origin = origin
	w.nextEmit = origin
	for _, t := range w.pending {
		if err := w.absorb(t); err != nil {
			return err
		}
	}
	w.pending = nil
	return nil
}

// beginOutput readies the output buffers for one Advance or Close.
func (w *WindowAgg) beginOutput() {
	if w.obatch == nil {
		w.obatch = NewBatch(w.out)
	} else {
		w.obatch.Reset(w.out)
	}
	w.outT = nil
	w.outPart = w.outPart[:0]
}

// partitionMajor reorders an output of several boundaries, emitted
// boundary by boundary, into partition order — what one instance per
// partition, punctuated one after the other, would have emitted. The
// reorder is stable, so each partition keeps its boundaries in time order
// and its groups sorted.
func (w *WindowAgg) partitionMajor() {
	ordered := true
	for i := 1; i < len(w.outPart); i++ {
		if w.outPart[i] < w.outPart[i-1] {
			ordered = false
			break
		}
	}
	if ordered {
		return
	}
	perm := make([]int, len(w.outPart))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool { return w.outPart[perm[i]] < w.outPart[perm[j]] })
	if w.outT != nil {
		out := make([]Tuple, len(perm))
		for i, from := range perm {
			out[i] = w.outT[from]
		}
		w.outT = out
		return
	}
	if w.oswap == nil {
		w.oswap = NewBatch(w.out)
	} else {
		w.oswap.Reset(w.out)
	}
	for _, from := range perm {
		// A reordering of column-homogeneous rows is column-homogeneous.
		w.oswap.AppendFrom(w.obatch, from)
	}
	w.obatch, w.oswap = w.oswap, w.obatch
}

// output hands the emitted rows over: columnar unless a row broke column
// homogeneity, (nil, nil) when nothing was emitted.
func (w *WindowAgg) output() (*Batch, []Tuple) {
	if w.outT != nil {
		return nil, w.outT
	}
	if w.obatch.Len() == 0 {
		return nil, nil
	}
	return w.obatch, nil
}

// AdvanceBatch implements BatchAdvancer: every boundary at or before now
// is emitted into one reused columnar batch.
func (w *WindowAgg) AdvanceBatch(now time.Time) (*Batch, []Tuple, error) {
	if !w.started {
		if err := w.start(now); err != nil {
			return nil, nil, err
		}
	}
	w.beginOutput()
	boundaries := 0
	for ; !w.nextEmit.After(now); boundaries++ {
		if err := w.emit(w.nextEmit); err != nil {
			return nil, nil, err
		}
		w.nextEmit = w.nextEmit.Add(w.Slide)
	}
	if boundaries > 1 && len(w.PartitionBy) > 0 {
		w.partitionMajor()
	}
	b, ts := w.output()
	return b, ts, nil
}

// Advance implements Operator.
func (w *WindowAgg) Advance(now time.Time) ([]Tuple, error) {
	b, ts, err := w.AdvanceBatch(now)
	if b != nil {
		ts = b.Tuples()
	}
	return ts, err
}

// Close implements Operator.
func (w *WindowAgg) Close() ([]Tuple, error) {
	// Emit one final window at the next boundary so trailing tuples are
	// not lost when the stream ends between boundaries.
	if !w.started {
		// The stream ended before any punctuation: anchor the single
		// closing window at the last tuple's timestamp.
		if len(w.pending) == 0 {
			return nil, nil
		}
		if err := w.start(w.pending[len(w.pending)-1].Ts); err != nil {
			return nil, err
		}
	}
	// Prune state the final window (nextEmit−Range, nextEmit] cannot
	// observe before deciding whether anything is left to emit, so both
	// modes agree on whether the closing window fires: panes at or left
	// of the window's left edge, and buffered tuples at or before it.
	lo := w.nextEmit.Add(-w.Range)
	w.evictThrough(int64(lo.Sub(w.origin)) / int64(w.pane))
	w.pruneBuffer(lo)
	if len(w.panes) == 0 && len(w.buffer) == 0 {
		return nil, nil
	}
	w.beginOutput()
	if err := w.emit(w.nextEmit); err != nil {
		return nil, err
	}
	b, ts := w.output()
	if b != nil {
		ts = b.Tuples()
	}
	return ts, nil
}

// pruneBuffer drops Naive-mode tuples at or before lo: no later window
// can contain them.
func (w *WindowAgg) pruneBuffer(lo time.Time) {
	live := w.buffer[:0]
	for _, t := range w.buffer {
		if t.Ts.After(lo) {
			live = append(live, t)
		}
	}
	w.buffer = live
}

// emit produces the window result for boundary b.
func (w *WindowAgg) emit(b time.Time) error {
	if w.Naive {
		return w.emitNaive(b)
	}
	return w.emitPanes(b)
}

// naiveGroup is one (partition, group values) cell of a Naive emission.
type naiveGroup struct {
	part int32
	vals []Value
	accs []accum
}

// emitNaive re-aggregates the buffered tuples of the window (b−Range, b]
// from scratch: no slots, no panes, a fresh map and a fresh sort per
// boundary.
func (w *WindowAgg) emitNaive(b time.Time) error {
	w.pruneBuffer(b.Add(-w.Range))
	groups := make(map[string]*naiveGroup)
	var order []*naiveGroup
	for _, t := range w.buffer {
		if t.Ts.After(b) {
			continue
		}
		p, g, err := w.rowKeys(t)
		if err != nil {
			return err
		}
		w.keyBuf = appendGroupKey(append(w.keyBuf[:0], byte(p), byte(p>>8), byte(p>>16), byte(p>>24)), g)
		grp := groups[string(w.keyBuf)]
		if grp == nil {
			grp = &naiveGroup{part: p, vals: canonGroupVals(nil, g), accs: make([]accum, len(w.Aggs))}
			for i, a := range w.Aggs {
				grp.accs[i].init(a)
			}
			groups[string(w.keyBuf)] = grp
			order = append(order, grp)
		}
		if err := w.addRow(grp.accs, t); err != nil {
			return err
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].part != order[j].part {
			return order[i].part < order[j].part
		}
		return cmpGroupVals(order[i].vals, order[j].vals) < 0
	})
	next := 0
	for p := range w.parts {
		live := false
		for ; next < len(order) && order[next].part == int32(p); next++ {
			live = true
			if err := w.emitRow(b, int32(p), order[next].vals, order[next].accs); err != nil {
				return err
			}
		}
		if !live {
			if err := w.emitEmpty(b, int32(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitEmpty emits partition p's row over empty input when the operator is
// a global aggregation with EmitEmpty set.
func (w *WindowAgg) emitEmpty(b time.Time, p int32) error {
	if len(w.GroupBy) != 0 || !w.EmitEmpty {
		return nil
	}
	for i, a := range w.Aggs {
		w.merged[i].init(a)
	}
	return w.emitRow(b, p, nil, w.merged)
}

// emitRow finishes one group — partition front columns, group values,
// aggregate results — applies HAVING, and appends the row to the output.
func (w *WindowAgg) emitRow(b time.Time, p int32, gvals []Value, accs []accum) error {
	row := w.rowScratch[:0]
	for _, i := range w.frontCols {
		row = append(row, w.parts[p].vals[i])
	}
	row = append(row, gvals...)
	for i, a := range w.Aggs {
		row = append(row, accs[i].result(a, w.argKinds[i]))
	}
	w.rowScratch = row
	if w.havingFn != nil {
		v, err := w.havingFn(Tuple{Ts: b, Values: row})
		if err != nil {
			return fmt.Errorf("stream: window having: %w", err)
		}
		if !v.Truthy() {
			return nil
		}
	}
	if len(w.PartitionBy) > 0 {
		w.outPart = append(w.outPart, p)
	}
	if w.outT == nil {
		if w.obatch.AppendValues(b, row) {
			return nil
		}
		// A result's kind conflicts with its column (min/max over a
		// mixed int/float argument): finish the emission as tuples.
		w.outT = w.obatch.Tuples()
	}
	w.outT = append(w.outT, Tuple{Ts: b, Values: append([]Value(nil), row...)})
	return nil
}

// lessValues orders value slices lexicographically; NULLs sort first and
// incomparable pairs fall back to string order so the sort is total.
func lessValues(a, b []Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if lessValue(a[i], b[i]) {
			return true
		}
		if lessValue(b[i], a[i]) {
			return false
		}
	}
	return len(a) < len(b)
}

// lessValue totally orders two scalars: NULLs first, Compare where
// defined, string rendering as the fallback for incomparable pairs.
func lessValue(a, b Value) bool {
	switch {
	case a.IsNull():
		return !b.IsNull()
	case b.IsNull():
		return false
	}
	c, err := a.Compare(b)
	if err != nil {
		return a.String() < b.String()
	}
	return c < 0
}

// cmpGroupVals orders two group-value slices of equal length: lessValue
// column by column, with pairs it leaves tied — equal numbers of
// different kinds, NaN against anything — broken by kind and then by
// float bits, so distinct groups never compare equal and the order does
// not depend on arrival.
func cmpGroupVals(a, b []Value) int {
	for i := range a {
		switch {
		case lessValue(a[i], b[i]):
			return -1
		case lessValue(b[i], a[i]):
			return 1
		case a[i].kind != b[i].kind:
			return cmpInt(int64(a[i].kind), int64(b[i].kind))
		case a[i].kind == KindFloat:
			if c := cmpInt(int64(math.Float64bits(a[i].f)), int64(math.Float64bits(b[i].f))); c != 0 {
				return c
			}
		}
	}
	return 0
}
