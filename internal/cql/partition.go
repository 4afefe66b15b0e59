package cql

import (
	"strings"

	"esp/internal/stream"
)

// This file is the partition rewrite: it turns the linear plan of one
// stage instance — what the ESP processor would otherwise instantiate
// once per receptor stream (Point, Smooth) or once per spatial granule
// (Merge) — into one plan that computes every instance's result in a
// single pass, keyed by the columns that tell the instances apart.

// PartitionPlan rewrites ops, a plan whose input carries the key columns,
// into the plan that computes — over the union of the instances' inputs —
// what one copy of ops per distinct key value would compute over its own
// rows. Row-wise operators are partition-oblivious already, so their
// projections only have to carry the keys through; every window
// aggregate takes the keys as its PartitionBy and parts — every key value
// the input can carry — as its Partitions, so each punctuation emits the
// instances' results one instance after the other in parts' order, the
// order the instances would be punctuated in. The rewritten plan's
// output is the original output with the key columns it lacks prepended
// in keys' order.
//
// It reports false when the plan has any other shape: an operator that
// is neither row-wise nor a window aggregate (joins, ArgMax, Sample,
// Distinct, hand-written operators), or one that defines a column named
// like a key as anything but the key itself. The caller then keeps one
// instance per key. The returned operators are unopened and share their
// expressions with ops, which must not be used afterwards.
func PartitionPlan(ops []stream.Operator, keys []string, parts [][]stream.Value) ([]stream.Operator, bool) {
	out := make([]stream.Operator, 0, len(ops))
	for _, op := range ops {
		switch o := op.(type) {
		case *stream.Filter:
			out = append(out, stream.NewFilter(o.Pred))
		case *stream.Project:
			exprs, ok := carryKeys(o.Exprs, keys)
			if !ok {
				return nil, false
			}
			out = append(out, stream.NewProject(exprs...))
		case *stream.FusedFilterProject:
			exprs, ok := carryKeys(o.Exprs, keys)
			if !ok {
				return nil, false
			}
			out = append(out, &stream.FusedFilterProject{Pred: o.Pred, Exprs: exprs})
		case *stream.WindowAgg:
			if len(o.PartitionBy) != 0 {
				return nil, false
			}
			if _, ok := carryKeys(o.GroupBy, keys); !ok {
				return nil, false
			}
			for _, a := range o.Aggs {
				if isKey(a.Name, keys) {
					return nil, false
				}
			}
			out = append(out, &stream.WindowAgg{
				GroupBy: o.GroupBy, Aggs: o.Aggs, Range: o.Range, Slide: o.Slide,
				Having: o.Having, Where: o.Where, EmitEmpty: o.EmitEmpty, Naive: o.Naive,
				PartitionBy: keys, Partitions: parts,
			})
		default:
			return nil, false
		}
	}
	return out, true
}

func isKey(name string, keys []string) bool {
	for _, k := range keys {
		if strings.EqualFold(name, k) {
			return true
		}
	}
	return false
}

// carryKeys returns exprs with the keys it does not already pass through
// prepended. It reports false when exprs defines a key's name as
// something other than that key column.
func carryKeys(exprs []stream.NamedExpr, keys []string) ([]stream.NamedExpr, bool) {
	have := make(map[string]bool, len(keys))
	for _, ne := range exprs {
		if !isKey(ne.Name, keys) {
			continue
		}
		if col, ok := stream.ColName(ne.Expr); !ok || !strings.EqualFold(col, ne.Name) {
			return nil, false
		}
		have[strings.ToLower(ne.Name)] = true
	}
	out := make([]stream.NamedExpr, 0, len(keys)+len(exprs))
	for _, k := range keys {
		if !have[strings.ToLower(k)] {
			out = append(out, stream.NamedExpr{Name: k, Expr: stream.NewCol(k)})
		}
	}
	return append(out, exprs...), true
}

// SamePlan reports whether two plans of partitionable operators are the
// same plan — operator for operator the same kind with the same
// expressions and window parameters — so that one of them can stand for
// both. Plans holding any other operator are never the same.
func SamePlan(a, b []stream.Operator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := a[i].(type) {
		case *stream.Filter, *stream.Project, *stream.FusedFilterProject:
		case *stream.WindowAgg:
			y, ok := b[i].(*stream.WindowAgg)
			if !ok || x.EmitEmpty != y.EmitEmpty || x.Naive != y.Naive {
				return false
			}
		default:
			return false
		}
		if describeOp(a[i]) != describeOp(b[i]) {
			return false
		}
	}
	return true
}
