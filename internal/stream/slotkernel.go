package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// This file is WindowAgg's slot-indexed kernel. Every distinct
// (partition, group values) pair is interned once into a dense int32
// slot through a compact key — never by hashing a Value or GroupKey
// struct. A pane is a slot-indexed array of accumulator cells. Each
// partition keeps its live slots in group order, maintained when a group
// is interned, so a boundary is emitted by walking partitions and slots in
// order — no per-boundary sort. A slot is reclaimed when the last pane
// holding a cell for it is evicted.

// PartitionRun marks rows [End of the previous run, End) of a batch as
// belonging to partition Part — an index into the consuming WindowAgg's
// Partitions — so a partition that is constant over a run costs no
// per-row lookup. The runs of a batch are ascending and cover every row.
type PartitionRun struct {
	Part int
	End  int
}

// keyTable interns value tuples as int32 ids: one string or one int value
// keys a native map directly; anything else (other kinds, NULL,
// composites) is byte-encoded by appendGroupKey.
type keyTable struct {
	byStr map[string]int32
	byInt map[int64]int32
	byKey map[string]int32
}

func (t *keyTable) get(vals []Value, buf *[]byte) (int32, bool) {
	if len(vals) == 1 {
		switch vals[0].kind {
		case KindString:
			id, ok := t.byStr[vals[0].s]
			return id, ok
		case KindInt:
			id, ok := t.byInt[vals[0].i]
			return id, ok
		}
	}
	*buf = appendGroupKey((*buf)[:0], vals)
	id, ok := t.byKey[string(*buf)]
	return id, ok
}

func (t *keyTable) put(vals []Value, id int32, buf *[]byte) {
	if len(vals) == 1 {
		switch vals[0].kind {
		case KindString:
			if t.byStr == nil {
				t.byStr = make(map[string]int32)
			}
			t.byStr[vals[0].s] = id
			return
		case KindInt:
			if t.byInt == nil {
				t.byInt = make(map[int64]int32)
			}
			t.byInt[vals[0].i] = id
			return
		}
	}
	if t.byKey == nil {
		t.byKey = make(map[string]int32)
	}
	*buf = appendGroupKey((*buf)[:0], vals)
	t.byKey[string(*buf)] = id
}

func (t *keyTable) del(vals []Value, buf *[]byte) {
	if len(vals) == 1 {
		switch vals[0].kind {
		case KindString:
			delete(t.byStr, vals[0].s)
			return
		case KindInt:
			delete(t.byInt, vals[0].i)
			return
		}
	}
	*buf = appendGroupKey((*buf)[:0], vals)
	delete(t.byKey, string(*buf))
}

// canonFloatBits is the key form of a float: −0 and +0 share one, and so
// do all NaNs.
func canonFloatBits(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}

// appendGroupKey appends the identity encoding of vals: a kind byte per
// value, then its payload (strings length-prefixed, floats canonical,
// times as their instant). Equal encodings ⇔ same group.
func appendGroupKey(buf []byte, vals []Value) []byte {
	for _, v := range vals {
		buf = append(buf, byte(v.kind))
		switch v.kind {
		case KindBool, KindInt:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.i))
		case KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, canonFloatBits(v.f))
		case KindString:
			buf = binary.AppendUvarint(buf, uint64(len(v.s)))
			buf = append(buf, v.s...)
		case KindTime:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.t.Unix()))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v.t.Nanosecond()))
		}
	}
	return buf
}

// canonGroupVals appends owned copies of vals to dst in the form a group
// reports them: floats with their canonical bits.
func canonGroupVals(dst, vals []Value) []Value {
	for _, v := range vals {
		if v.kind == KindFloat {
			v.f = math.Float64frombits(canonFloatBits(v.f))
		}
		dst = append(dst, v)
	}
	return dst
}

// partition is one PartitionBy value: its own group table and its live
// slots in group order (at most one slot for a global aggregation).
type partition struct {
	vals  []Value
	keys  keyTable
	order []int32
}

// slot is one interned (partition, group values) pair.
type slot struct {
	part int32
	refs int32 // panes holding a cell for the slot
	vals []Value
}

// pane holds the partial aggregates of one pane interval: cellOf maps a
// slot to its cell (-1 when absent), slots lists the cells' slots in
// first-touch order, and accs holds len(Aggs) accumulators per cell.
type pane struct {
	cellOf []int32
	slots  []int32
	accs   []accum
}

// slotKernel is the paned state of a WindowAgg.
type slotKernel struct {
	parts     []partition
	partKeys  keyTable
	slots     []slot
	freeSlots []int32
	panes     map[int64]*pane
	freePanes []*pane
	merged    []accum // per-group merge scratch, one per aggregate
	window    []*pane // per-emit scratch: the window's panes, ascending
	keyBuf    []byte
}

// initKernel resets the kernel and registers the declared partitions (a
// single implicit one when the operator is unpartitioned).
func (w *WindowAgg) initKernel() error {
	w.slotKernel = slotKernel{
		panes:  make(map[int64]*pane),
		merged: make([]accum, len(w.Aggs)),
	}
	if len(w.PartitionBy) == 0 {
		w.parts = []partition{{}}
		return nil
	}
	w.parts = make([]partition, 0, len(w.Partitions))
	for _, vals := range w.Partitions {
		if len(vals) != len(w.PartitionBy) {
			return fmt.Errorf("stream: window partition %v: want %d value(s)", vals, len(w.PartitionBy))
		}
		if _, dup := w.partKeys.get(vals, &w.keyBuf); dup {
			return fmt.Errorf("stream: window partition %v registered twice", vals)
		}
		w.partKeys.put(vals, int32(len(w.parts)), &w.keyBuf)
		w.parts = append(w.parts, partition{vals: canonGroupVals(nil, vals)})
	}
	return nil
}

// partitionOf returns the index of the registered partition with the
// given values.
func (w *WindowAgg) partitionOf(vals []Value) (int32, error) {
	p, ok := w.partKeys.get(vals, &w.keyBuf)
	if !ok {
		return 0, fmt.Errorf("stream: window: row of unregistered partition %v", vals)
	}
	return p, nil
}

// slotOf returns the slot of group g in partition p, interning it on
// first sight.
func (w *WindowAgg) slotOf(p int32, g []Value) int32 {
	part := &w.parts[p]
	if len(g) == 0 {
		if len(part.order) > 0 {
			return part.order[0]
		}
	} else if s, ok := part.keys.get(g, &w.keyBuf); ok {
		return s
	}
	return w.newSlot(p, g)
}

// newSlot interns group g of partition p: a recycled or fresh slot, keyed
// in the partition's table and inserted at its place in the group order.
func (w *WindowAgg) newSlot(p int32, g []Value) int32 {
	var s int32
	if n := len(w.freeSlots); n > 0 {
		s = w.freeSlots[n-1]
		w.freeSlots = w.freeSlots[:n-1]
	} else {
		s = int32(len(w.slots))
		w.slots = append(w.slots, slot{})
	}
	sl := &w.slots[s]
	sl.part, sl.refs = p, 0
	sl.vals = canonGroupVals(sl.vals[:0], g)
	part := &w.parts[p]
	if len(g) > 0 {
		part.keys.put(g, s, &w.keyBuf)
	}
	at := sort.Search(len(part.order), func(i int) bool {
		return cmpGroupVals(w.slots[part.order[i]].vals, sl.vals) > 0
	})
	part.order = append(part.order, 0)
	copy(part.order[at+1:], part.order[at:])
	part.order[at] = s
	return s
}

// release drops one pane's reference to slot s and reclaims the slot when
// it was the last.
func (w *WindowAgg) release(s int32) {
	sl := &w.slots[s]
	if sl.refs--; sl.refs > 0 {
		return
	}
	part := &w.parts[sl.part]
	for i, o := range part.order {
		if o == s {
			part.order = append(part.order[:i], part.order[i+1:]...)
			break
		}
	}
	if len(sl.vals) > 0 {
		part.keys.del(sl.vals, &w.keyBuf)
	}
	w.freeSlots = append(w.freeSlots, s)
}

// paneAt returns pane j, opening it if needed.
func (w *WindowAgg) paneAt(j int64) *pane {
	pn := w.panes[j]
	if pn == nil {
		if n := len(w.freePanes); n > 0 {
			pn = w.freePanes[n-1]
			w.freePanes = w.freePanes[:n-1]
		} else {
			pn = &pane{}
		}
		w.panes[j] = pn
		w.livePanes.Add(1)
	}
	return pn
}

// cell returns slot s's accumulators in pane pn, opening the cell on
// first touch. The returned slice is only valid until the pane's next
// cell is opened.
func (w *WindowAgg) cell(pn *pane, s int32) []accum {
	na := len(w.Aggs)
	if int(s) < len(pn.cellOf) {
		if ci := int(pn.cellOf[s]); ci >= 0 {
			return pn.accs[ci*na : (ci+1)*na]
		}
	} else {
		for len(pn.cellOf) < len(w.slots) {
			pn.cellOf = append(pn.cellOf, -1)
		}
	}
	ci := len(pn.slots)
	pn.cellOf[s] = int32(ci)
	pn.slots = append(pn.slots, s)
	w.slots[s].refs++
	lo, hi := ci*na, (ci+1)*na
	if hi <= cap(pn.accs) {
		pn.accs = pn.accs[:hi]
	} else {
		pn.accs = append(pn.accs, make([]accum, na)...)
	}
	for k, a := range w.Aggs {
		pn.accs[lo+k].init(a)
	}
	return pn.accs[lo:hi]
}

// evictThrough recycles every pane at or before jLo — every later window
// starts after them — releasing their slots.
func (w *WindowAgg) evictThrough(jLo int64) {
	for j, pn := range w.panes {
		if j > jLo {
			continue
		}
		delete(w.panes, j)
		w.livePanes.Add(-1)
		for _, s := range pn.slots {
			pn.cellOf[s] = -1
			w.release(s)
		}
		pn.slots = pn.slots[:0]
		pn.accs = pn.accs[:0]
		w.freePanes = append(w.freePanes, pn)
	}
}

// emitPanes merges, per live group, the panes spanned by the window
// (b−Range, b] in ascending pane order and emits the groups partition by
// partition, in group order.
func (w *WindowAgg) emitPanes(b time.Time) error {
	jHi := int64(b.Sub(w.origin)) / int64(w.pane)
	jLo := int64(b.Add(-w.Range).Sub(w.origin)) / int64(w.pane) // exclusive
	w.window = w.window[:0]
	for j := jLo + 1; j <= jHi; j++ {
		if pn := w.panes[j]; pn != nil {
			w.window = append(w.window, pn)
		}
	}
	na := len(w.Aggs)
	for p := range w.parts {
		live := false
		// release never runs during emission, so order is stable here.
		for _, s := range w.parts[p].order {
			found := false
			for _, pn := range w.window {
				if int(s) >= len(pn.cellOf) || pn.cellOf[s] < 0 {
					continue
				}
				if !found {
					found = true
					for k, a := range w.Aggs {
						w.merged[k].init(a)
					}
				}
				lo := int(pn.cellOf[s]) * na
				for k := range w.merged {
					w.merged[k].merge(&pn.accs[lo+k])
				}
			}
			if !found {
				continue // only in panes right of the window
			}
			live = true
			if err := w.emitRow(b, int32(p), w.slots[s].vals, w.merged); err != nil {
				return err
			}
		}
		if !live {
			if err := w.emitEmpty(b, int32(p)); err != nil {
				return err
			}
		}
	}
	w.evictThrough(jLo)
	return nil
}

// sameRow reports whether rows i and j agree on every column in cols.
func sameRow(b *Batch, cols []int, i, j int) bool {
	for _, ci := range cols {
		c := &b.cols[ci]
		if c.Kind == KindString && c.valid == nil {
			if c.Strs[i] != c.Strs[j] {
				return false
			}
		} else if c.Value(i) != c.Value(j) {
			return false
		}
	}
	return true
}

// absorbBatch folds every row of a batch into the pane cells straight off
// the columns — the columnar analogue of absorb, valid only when colsOK
// (bare-column groups/args), the operator is started, no WHERE is fused,
// and the mode is not Naive. Per row it performs the same late-drop test,
// pane lookup, slot lookup, and accumulator updates as absorb, so the two
// paths are observationally identical. The cell is cached across rows
// that stay in one (pane, partition, group); with a run vector the
// partition costs nothing per row, without one it is re-resolved only
// when a row's partition columns differ from the previous row's.
func (w *WindowAgg) absorbBatch(b *Batch, runs []PartitionRun) error {
	n := b.Len()
	if len(runs) == 0 || runs[len(runs)-1].End != n {
		runs = nil
	}
	checkLate := !w.nextEmit.IsZero()
	var lateEdge time.Time
	if checkLate {
		lateEdge = w.nextEmit.Add(-w.Range)
	}
	// Resolve each aggregate's argument column once per batch; fast marks
	// the unboxed float kernel (float column, no NULLs, eligible spec).
	if cap(w.batchArgs) < len(w.Aggs) {
		w.batchArgs = make([]batchArg, len(w.Aggs))
	}
	args := w.batchArgs[:len(w.Aggs)]
	for k := range w.Aggs {
		if ci := w.argCols[k]; ci >= 0 {
			c := b.Col(ci)
			args[k] = batchArg{col: c, fast: w.aggFloatable[k] && c.Kind == KindFloat && c.noNulls()}
		} else {
			args[k] = batchArg{}
		}
	}
	// One string group column without NULLs keys the partition's native
	// string map directly.
	var gstr []string
	if len(w.groupCols) == 1 {
		if c := b.Col(w.groupCols[0]); c.Kind == KindString && c.noNulls() {
			gstr = c.Strs
		}
	}
	global := len(w.GroupBy) == 0
	partitioned := len(w.partCols) > 0
	lastJ := int64(math.MinInt64)
	var pn *pane
	var accs []accum // current cell; nil forces a lookup
	p, s := int32(0), int32(-1)
	run, runEnd := 0, 0
	pRow := -1 // row p was resolved from
	for i := 0; i < n; i++ {
		ts := b.ts[i]
		if checkLate && !ts.After(lateEdge) {
			w.drop()
			continue
		}
		if j := w.paneIndex(ts); j != lastJ {
			lastJ, pn, accs = j, w.paneAt(j), nil
		}
		if partitioned {
			np := p
			if runs != nil {
				if i >= runEnd {
					for i >= runs[run].End {
						run++
					}
					runEnd = runs[run].End
					np = int32(runs[run].Part)
				}
			} else if pRow < 0 || !sameRow(b, w.partCols, i, pRow) {
				w.pscratch = w.pscratch[:0]
				for _, ci := range w.partCols {
					w.pscratch = append(w.pscratch, b.cols[ci].Value(i))
				}
				var err error
				if np, err = w.partitionOf(w.pscratch); err != nil {
					return err
				}
				pRow = i
			}
			if np != p {
				p, accs = np, nil
			}
		}
		switch {
		case global:
			if accs == nil {
				s = w.slotOf(p, nil)
				accs = w.cell(pn, s)
			}
		case gstr != nil:
			ns, ok := w.parts[p].keys.byStr[gstr[i]]
			if !ok {
				w.gscratch = append(w.gscratch[:0], String(gstr[i]))
				ns = w.newSlot(p, w.gscratch)
			}
			if ns != s || accs == nil {
				s, accs = ns, w.cell(pn, ns)
			}
		default:
			w.gscratch = w.gscratch[:0]
			for _, ci := range w.groupCols {
				w.gscratch = append(w.gscratch, b.cols[ci].Value(i))
			}
			if ns := w.slotOf(p, w.gscratch); ns != s || accs == nil {
				s, accs = ns, w.cell(pn, ns)
			}
		}
		for k := range args {
			a := &args[k]
			switch {
			case a.col == nil:
				accs[k].add(Null(), true)
			case a.fast:
				accs[k].addFloat(a.col.Floats[i])
			default:
				accs[k].add(a.col.Value(i), false)
			}
		}
	}
	return nil
}
