package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var kernelSchema = MustSchema(
	Field{Name: "site", Kind: KindString},
	Field{Name: "g", Kind: KindFloat},
	Field{Name: "tag", Kind: KindString},
	Field{Name: "v", Kind: KindFloat},
)

// renderRows renders tuples for exact comparison; unlike ==, the text
// form equates NaN with NaN and tells −0 from 0.
func renderRows(ts []Tuple) string {
	var sb strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&sb, "%d|%v\n", t.Ts.UnixNano(), t.Values)
	}
	return sb.String()
}

// kernelCase is one random window program: the operator's shape and a
// stream with duplicates of awkward group values, late tuples, and a
// group domain that drifts so groups die and their slots are reused.
type kernelCase struct {
	mk     func(naive bool) *WindowAgg
	tuples []Tuple
	groups int // distinct (site, g, tag) triples in the stream
}

func genKernelCase(seed int64) kernelCase {
	r := rand.New(rand.NewSource(seed))
	rangeSec, slideSec := 1+r.Intn(6), 1+r.Intn(3)
	partitioned := r.Intn(2) == 0
	byFloat := r.Intn(2) == 0
	var groupBy []NamedExpr
	switch {
	case byFloat && r.Intn(2) == 0:
		groupBy = []NamedExpr{{Name: "g", Expr: NewCol("g")}, {Name: "tag", Expr: NewCol("tag")}}
	case byFloat:
		groupBy = []NamedExpr{{Name: "g", Expr: NewCol("g")}}
	case r.Intn(3) > 0:
		groupBy = []NamedExpr{{Name: "tag", Expr: NewCol("tag")}}
	}
	var having, where Expr
	if r.Intn(2) == 0 {
		having = NewBinary(OpGe, NewCol("n"), NewConst(Int(2)))
	}
	if r.Intn(3) == 0 {
		where = NewBinary(OpLt, NewCol("v"), NewConst(Float(8)))
	}
	emitEmpty := len(groupBy) == 0 && r.Intn(2) == 0
	var c kernelCase
	c.mk = func(naive bool) *WindowAgg {
		w := &WindowAgg{
			GroupBy: groupBy,
			Aggs: []AggSpec{
				{Name: "n", Func: AggCount},
				{Name: "a", Func: AggAvg, Arg: NewCol("v")},
				{Name: "mx", Func: AggMax, Arg: NewCol("v")},
				{Name: "d", Func: AggCount, Arg: NewCol("tag"), Distinct: true},
			},
			Range:  time.Duration(rangeSec) * time.Second,
			Slide:  time.Duration(slideSec) * time.Second,
			Having: having, Where: where, EmitEmpty: emitEmpty, Naive: naive,
		}
		if partitioned {
			// Registered out of value order.
			w.PartitionBy = []string{"site"}
			w.Partitions = [][]Value{{String("s2")}, {String("s0")}, {String("s3")}, {String("s1")}}
		}
		return w
	}
	gvals := []Value{Null(), Float(math.NaN()), Float(math.Copysign(0, -1)), Float(0), Float(1.5), Float(-2)}
	seen := make(map[string]bool)
	sec := 0.0
	for i, n := 0, 40+r.Intn(160); i < n; i++ {
		sec += r.Float64() * 0.5
		ts := sec
		if r.Intn(8) == 0 {
			ts -= r.Float64() * float64(rangeSec+2) // late, possibly droppably so
		}
		site := fmt.Sprintf("s%d", r.Intn(4))
		// The tag domain slides with time: old tags stop arriving.
		tag := fmt.Sprintf("t%02d", int(sec/3)+r.Intn(3))
		g := gvals[r.Intn(len(gvals))]
		v := Float(float64(r.Intn(12)))
		if r.Intn(10) == 0 {
			v = Null()
		}
		c.tuples = append(c.tuples, Tuple{Ts: at(ts), Values: []Value{String(site), g, String(tag), v}})
		seen[fmt.Sprint(site, g, tag)] = true
	}
	c.groups = len(seen)
	return c
}

// runKernel drives w epoch by epoch. asBatch delivers each epoch's tuples
// as one columnar batch (when they pack) instead of one at a time.
func runKernel(t *testing.T, w *WindowAgg, tuples []Tuple, asBatch bool) []Tuple {
	t.Helper()
	if err := w.Open(kernelSchema); err != nil {
		t.Fatal(err)
	}
	var out []Tuple
	i := 0
	for now := 1; now <= 45; now++ {
		lo := i
		// Arrival order, not timestamp order: a late tuple arrives after
		// fresher ones of its epoch.
		for i < len(tuples) && i-lo < 6 {
			i++
		}
		var err error
		if b, ok := BuildBatch(kernelSchema, tuples[lo:i]); asBatch && ok && b.Len() > 0 {
			_, _, err = w.ProcessBatch(b)
		} else {
			for _, tu := range tuples[lo:i] {
				if _, err = w.Process(tu); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Advance(at(float64(now)))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, got...)
	}
	got, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(out, got...)
}

// checkKernelInvariants audits the slot bookkeeping: a slot is free or
// referenced by exactly the panes holding a cell for it, and every
// partition's order lists its live slots, sorted, once each.
func checkKernelInvariants(w *WindowAgg) string {
	free := make(map[int32]bool)
	for _, s := range w.freeSlots {
		if free[s] {
			return fmt.Sprintf("slot %d freed twice", s)
		}
		free[s] = true
	}
	refs := make(map[int32]int32)
	for _, pn := range w.panes {
		for _, s := range pn.slots {
			refs[s]++
		}
	}
	ordered := make(map[int32]bool)
	for p := range w.parts {
		order := w.parts[p].order
		for i, s := range order {
			if ordered[s] || w.slots[s].part != int32(p) {
				return fmt.Sprintf("slot %d misplaced in partition %d's order", s, p)
			}
			ordered[s] = true
			if i > 0 && cmpGroupVals(w.slots[order[i-1]].vals, w.slots[s].vals) >= 0 {
				return fmt.Sprintf("partition %d's order is not sorted at %d", p, i)
			}
		}
	}
	for s := range w.slots {
		s := int32(s)
		switch {
		case free[s] && (refs[s] != 0 || ordered[s]):
			return fmt.Sprintf("free slot %d still referenced", s)
		case !free[s] && (refs[s] == 0 || w.slots[s].refs != refs[s] || !ordered[s]):
			return fmt.Sprintf("live slot %d: refs %d, panes holding it %d, ordered %v", s, w.slots[s].refs, refs[s], ordered[s])
		}
	}
	return ""
}

// TestQuickSlotKernelMatchesNaive holds the slot kernel — through its
// row-wise and its columnar entry — to from-scratch re-aggregation on
// streams with NULL / NaN / −0 group values, late tuples, groups that die
// and come back, HAVING, a fused WHERE, and partitions; and checks that
// dead groups' slots really are reused.
func TestQuickSlotKernelMatchesNaive(t *testing.T) {
	reused := false
	f := func(seed int64) bool {
		c := genKernelCase(seed)
		naive := c.mk(true)
		want := renderRows(runKernel(t, naive, c.tuples, false))
		for _, asBatch := range []bool{false, true} {
			w := c.mk(false)
			got := renderRows(runKernel(t, w, c.tuples, asBatch))
			if got != want {
				t.Logf("seed %d asBatch=%v:\nkernel:\n%s\nnaive:\n%s", seed, asBatch, got, want)
				return false
			}
			if w.Dropped != naive.Dropped {
				t.Logf("seed %d asBatch=%v: Dropped %d, naive %d", seed, asBatch, w.Dropped, naive.Dropped)
				return false
			}
			if msg := checkKernelInvariants(w); msg != "" {
				t.Logf("seed %d asBatch=%v: %s", seed, asBatch, msg)
				return false
			}
			if len(w.GroupBy) > 0 && len(w.slots) < c.groups/2 {
				reused = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	if !reused {
		t.Error("no case recycled slots: the churn generator exercises nothing")
	}
}

// TestWindowGroupIdentity pins how awkward values group: −0 with +0
// (reported as 0), every NaN with every NaN, NULL with NULL, an int apart
// from the equal float, and the groups in a total order.
func TestWindowGroupIdentity(t *testing.T) {
	sch := MustSchema(Field{Name: "g", Kind: KindFloat})
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	in := []Value{
		Float(math.Copysign(0, -1)), Float(0), Float(math.NaN()), Float(otherNaN),
		Null(), Null(), Int(1), Float(1), Float(-3),
	}
	for _, naive := range []bool{false, true} {
		w := &WindowAgg{
			GroupBy: []NamedExpr{{Name: "g", Expr: NewCol("g")}},
			Aggs:    []AggSpec{{Name: "n", Func: AggCount}},
			Range:   time.Second, Slide: time.Second, Naive: naive,
		}
		if err := w.Open(sch); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Advance(at(0)); err != nil {
			t.Fatal(err)
		}
		for _, v := range in {
			if _, err := w.Process(Tuple{Ts: at(0.5), Values: []Value{v}}); err != nil {
				t.Fatal(err)
			}
		}
		out, err := w.Advance(at(1))
		if err != nil {
			t.Fatal(err)
		}
		got := renderRows(out)
		want := renderRows([]Tuple{
			{Ts: at(1), Values: []Value{Null(), Int(2)}},
			{Ts: at(1), Values: []Value{Float(-3), Int(1)}},
			{Ts: at(1), Values: []Value{Float(0), Int(2)}},
			{Ts: at(1), Values: []Value{Int(1), Int(1)}},
			{Ts: at(1), Values: []Value{Float(1), Int(1)}},
			{Ts: at(1), Values: []Value{Float(math.NaN()), Int(2)}},
		})
		if got != want {
			t.Errorf("naive=%v:\ngot:\n%swant:\n%s", naive, got, want)
		}
	}
}

// TestWindowPartitionedMatchesInstances is the partition contract: one
// partitioned operator emits, at every punctuation, what one ordinary
// operator per partition emits, partition by partition in registration
// order — also when the punctuation releases several boundaries — with the
// partition columns GroupBy does not name in front, with or without a run
// vector, columnar or row-wise.
func TestWindowPartitionedMatchesInstances(t *testing.T) {
	sites := []string{"s2", "s0", "s1"}
	mk := func(partitioned bool) *WindowAgg {
		w := &WindowAgg{
			GroupBy: []NamedExpr{{Name: "tag", Expr: NewCol("tag")}},
			Aggs: []AggSpec{
				{Name: "n", Func: AggCount},
				{Name: "a", Func: AggAvg, Arg: NewCol("v")},
			},
			Range: 3 * time.Second, Slide: time.Second,
		}
		if partitioned {
			w.PartitionBy = []string{"site"}
			for _, s := range sites {
				w.Partitions = append(w.Partitions, []Value{String(s)})
			}
		}
		return w
	}
	for _, mode := range []string{"rows", "batch", "runs"} {
		r := rand.New(rand.NewSource(7))
		part := mk(true)
		if err := part.Open(kernelSchema); err != nil {
			t.Fatal(err)
		}
		want := MustSchema(Field{Name: "site", Kind: KindString}, Field{Name: "tag", Kind: KindString},
			Field{Name: "n", Kind: KindInt}, Field{Name: "a", Kind: KindFloat})
		if !part.Schema().Equal(want) {
			t.Fatalf("partitioned schema = %s, want %s", part.Schema(), want)
		}
		single := make([]*WindowAgg, len(sites))
		for i := range single {
			single[i] = mk(false)
			if err := single[i].Open(kernelSchema); err != nil {
				t.Fatal(err)
			}
		}
		for now := 1; now <= 12; now++ {
			// One run of rows per site, in registration order.
			b := NewBatch(kernelSchema)
			var runs []PartitionRun
			var epoch []Tuple
			for si, s := range sites {
				for j, n := 0, r.Intn(4); j < n; j++ {
					tu := Tuple{Ts: at(float64(now) - r.Float64()), Values: []Value{
						String(s), Float(0), String(fmt.Sprintf("t%d", r.Intn(3))), Float(float64(r.Intn(9)))}}
					epoch = append(epoch, tu)
					b.Append(tu)
					if _, err := single[si].Process(tu); err != nil {
						t.Fatal(err)
					}
				}
				if len(runs) == 0 && b.Len() > 0 || len(runs) > 0 && b.Len() > runs[len(runs)-1].End {
					runs = append(runs, PartitionRun{Part: si, End: b.Len()})
				}
			}
			var err error
			switch {
			case b.Len() == 0:
			case mode == "rows":
				for _, tu := range epoch {
					if _, err = part.Process(tu); err != nil {
						break
					}
				}
			case mode == "batch":
				_, _, err = part.ProcessBatch(b)
			default:
				_, _, err = NewChain(part).feedBatch(0, b, runs)
			}
			if err != nil {
				t.Fatal(err)
			}
			if now%3 == 0 {
				continue // the next punctuation releases two boundaries
			}
			gotB, gotT, err := part.AdvanceBatch(at(float64(now)))
			if err != nil {
				t.Fatal(err)
			}
			if gotT != nil {
				t.Fatalf("%s: boundary %d came back as tuples", mode, now)
			}
			var got []Tuple
			if gotB != nil {
				got = gotB.Tuples()
			}
			var wantRows []Tuple
			for si, s := range sites {
				out, err := single[si].Advance(at(float64(now)))
				if err != nil {
					t.Fatal(err)
				}
				for _, tu := range out {
					wantRows = append(wantRows, Tuple{Ts: tu.Ts, Values: append([]Value{String(s)}, tu.Values...)})
				}
			}
			if renderRows(got) != renderRows(wantRows) {
				t.Fatalf("%s: boundary %d:\npartitioned:\n%sinstances:\n%s", mode, now, renderRows(got), renderRows(wantRows))
			}
		}
	}
}

// TestWindowUnregisteredPartition: Partitions is the complete list; a row
// of any other partition is refused on arrival, in both modes and through
// both entries.
func TestWindowUnregisteredPartition(t *testing.T) {
	stray := Tuple{Ts: at(0.5), Values: []Value{String("s9"), Float(0), String("t0"), Float(1)}}
	for _, naive := range []bool{false, true} {
		for _, asBatch := range []bool{false, true} {
			w := &WindowAgg{
				Aggs:  []AggSpec{{Name: "n", Func: AggCount}},
				Range: time.Second, Slide: time.Second, Naive: naive,
				PartitionBy: []string{"site"}, Partitions: [][]Value{{String("s0")}},
			}
			if err := w.Open(kernelSchema); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Advance(at(0)); err != nil {
				t.Fatal(err)
			}
			var err error
			if b, ok := BuildBatch(kernelSchema, []Tuple{stray}); asBatch && ok {
				_, _, err = w.ProcessBatch(b)
			} else {
				_, err = w.Process(stray)
			}
			if err == nil {
				t.Errorf("naive=%v batch=%v: a row of an unregistered partition was accepted", naive, asBatch)
			}
		}
	}
}
