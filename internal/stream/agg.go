package stream

import (
	"fmt"
	"math"
	"sort"
)

// AggFunc enumerates the built-in aggregate functions.
type AggFunc uint8

// Aggregate functions supported in windowed GROUP BY queries.
const (
	// AggCount counts rows (count(*)) or non-NULL argument values.
	AggCount AggFunc = iota
	// AggSum sums numeric argument values.
	AggSum
	// AggAvg averages numeric argument values.
	AggAvg
	// AggMin takes the minimum argument value.
	AggMin
	// AggMax takes the maximum argument value.
	AggMax
	// AggStdev computes the population standard deviation, as used by the
	// paper's Merge-stage outlier detection (Query 5).
	AggStdev
	// AggMedian computes the median — the robust alternative to the
	// avg±stdev rejection, immune to a single fail-dirty device in any
	// group of three or more.
	AggMedian
	// AggPercentile computes the AggSpec.Param quantile (nearest-rank);
	// median is percentile with Param 0.5.
	AggPercentile
)

// String returns the CQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggStdev:
		return "stdev"
	case AggMedian:
		return "median"
	case AggPercentile:
		return "percentile"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// LookupAggFunc maps a CQL function name to an AggFunc.
func LookupAggFunc(name string) (AggFunc, bool) {
	switch name {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "stdev", "stddev":
		return AggStdev, true
	case "median":
		return AggMedian, true
	case "percentile":
		return AggPercentile, true
	}
	return 0, false
}

// AggSpec describes one aggregate in a SELECT list.
type AggSpec struct {
	Name     string // output column name
	Func     AggFunc
	Arg      Expr // nil means count(*)
	Distinct bool
	// Param parameterises AggPercentile: the quantile in (0, 1).
	Param float64
}

// holistic reports whether the aggregate must buffer its input values.
func (a AggSpec) holistic() bool {
	return (a.Func == AggMedian || a.Func == AggPercentile) && !a.Distinct
}

// quantile returns the aggregate's target quantile.
func (a AggSpec) quantile() float64 {
	if a.Func == AggMedian {
		return 0.5
	}
	return a.Param
}

func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	if a.Distinct {
		return fmt.Sprintf("%s(distinct %s)", a.Func, arg)
	}
	return fmt.Sprintf("%s(%s)", a.Func, arg)
}

// resultKind computes the output kind of the aggregate given its bound
// argument kind (KindNull for count(*)).
func (a AggSpec) resultKind(argKind Kind) (Kind, error) {
	switch a.Func {
	case AggCount:
		return KindInt, nil
	case AggSum:
		if !kindNumericOrNull(argKind) {
			return KindNull, fmt.Errorf("stream: sum(%s): argument must be numeric", argKind)
		}
		if argKind == KindInt {
			return KindInt, nil
		}
		return KindFloat, nil
	case AggAvg, AggStdev, AggMedian, AggPercentile:
		if !kindNumericOrNull(argKind) {
			return KindNull, fmt.Errorf("stream: %s(%s): argument must be numeric", a.Func, argKind)
		}
		if a.Func == AggPercentile && (a.quantile() <= 0 || a.quantile() >= 1) {
			return KindNull, fmt.Errorf("stream: percentile parameter %v out of (0,1)", a.quantile())
		}
		return KindFloat, nil
	case AggMin, AggMax:
		return argKind, nil
	}
	return KindNull, fmt.Errorf("stream: unknown aggregate %v", a.Func)
}

// moments is the mergeable first/second-moment state behind avg and
// stdev. Deviations are accumulated against a shift anchored at the
// minimum value seen so far, which serves two purposes:
//
//   - Numerical stability: the textbook sumsq/n − mean² finish
//     catastrophically cancels when the mean dwarfs the spread (e.g.
//     unix-timestamp-scale readings), silently clamping the variance to
//     zero. Deviations from the minimum stay on the scale of the data's
//     spread, so no cancellation occurs.
//   - Order canonicality: re-anchoring to the running minimum makes the
//     accumulated state a function of the value multiset, not of arrival
//     or pane-merge order, so the pane-merged and naively re-aggregated
//     window paths finish bit-identically whenever the underlying float
//     arithmetic is exact.
//
// Merging stays O(1): the higher-shifted side is rebased with the closed
// forms Σ(d+e) = Σd + n·e and Σ(d+e)² = Σd² + 2eΣd + n·e².
type moments struct {
	n     int64   // numeric observations folded in
	shift float64 // anchor: minimum value seen so far
	sumd  float64 // Σ (x − shift)
	sumd2 float64 // Σ (x − shift)²
}

func (m *moments) add(f float64) {
	if m.n == 0 {
		m.shift = f
	} else if f < m.shift {
		m.rebase(f)
	}
	d := f - m.shift
	m.sumd += d
	m.sumd2 += d * d
	m.n++
}

// rebase re-anchors the accumulated deviations to a lower shift s.
func (m *moments) rebase(s float64) {
	e := m.shift - s
	m.sumd2 += 2*e*m.sumd + float64(m.n)*e*e
	m.sumd += float64(m.n) * e
	m.shift = s
}

// merge folds b into m. b is passed by value: rebasing the copy leaves
// the caller's accumulator untouched.
func (m *moments) merge(b moments) {
	if b.n == 0 {
		return
	}
	if m.n == 0 {
		*m = b
		return
	}
	if b.shift < m.shift {
		m.rebase(b.shift)
	} else if b.shift > m.shift {
		b.rebase(m.shift)
	}
	m.sumd += b.sumd
	m.sumd2 += b.sumd2
	m.n += b.n
}

// mean returns the arithmetic mean; only valid for n > 0.
func (m *moments) mean() float64 { return m.shift + m.sumd/float64(m.n) }

// variance returns the population variance; only valid for n > 0. The
// clamp absorbs the last-ulp negative residue the subtraction can leave
// on constant inputs.
func (m *moments) variance() float64 {
	md := m.sumd / float64(m.n)
	v := m.sumd2/float64(m.n) - md*md
	if v < 0 {
		v = 0
	}
	return v
}

// accum is a mergeable partial aggregate for one (group, pane) cell.
// Window results are produced by merging the accums of the panes that the
// window spans, which makes sliding-window aggregation O(panes) instead of
// O(tuples) per emission.
type accum struct {
	n        int64   // non-NULL observations (rows for count(*))
	sum      float64 // running sum (integer/float sum)
	isum     int64   // integer sum (integer-typed sum)
	m        moments // shifted moments (avg, stdev)
	min, max Value
	distinct map[Value]int64 // value -> multiplicity, for DISTINCT
	vals     []float64       // buffered values, for holistic aggregates
	holistic bool
	// Per-observation maintenance is gated on what the aggregate's result
	// actually reads: an avg cell skips the min/max comparisons, a min
	// cell skips the moment updates, and so on. The untracked state stays
	// zero/NULL, which merge and result treat as empty.
	trackSum, trackMoments, trackMinMax bool
}

// init readies the accumulator for spec, emptying any previous state but
// keeping its value buffer and DISTINCT map for reuse — cells and merge
// scratch are recycled across panes and boundaries.
func (a *accum) init(spec AggSpec) {
	vals, distinct := a.vals[:0], a.distinct
	*a = accum{holistic: spec.holistic(), vals: vals}
	switch spec.Func {
	case AggSum:
		a.trackSum = true
	case AggAvg, AggStdev:
		a.trackMoments = true
	case AggMin, AggMax:
		a.trackMinMax = true
	}
	if spec.Distinct {
		if distinct == nil {
			distinct = make(map[Value]int64)
		} else {
			clear(distinct)
		}
		a.distinct = distinct
	}
}

// mkAccum initialises an accumulator by value — cells hold accums inline
// so one cell costs one allocation regardless of aggregate count.
func mkAccum(spec AggSpec) accum {
	var a accum
	a.init(spec)
	return a
}

func newAccum(spec AggSpec) *accum {
	a := mkAccum(spec)
	return &a
}

// add folds one observation into the accumulator. v is Null only for
// count(*) (which counts every row).
func (a *accum) add(v Value, countStar bool) {
	if countStar {
		a.n++
		return
	}
	if v.IsNull() {
		return
	}
	a.n++
	if a.distinct != nil {
		a.distinct[v]++
	}
	if v.Kind().Numeric() {
		if a.trackSum {
			a.sum += v.AsFloat()
			if v.Kind() == KindInt {
				a.isum += v.AsInt()
			}
		}
		if a.trackMoments {
			a.m.add(v.AsFloat())
		}
		if a.holistic {
			a.vals = append(a.vals, v.AsFloat())
		}
	}
	if !a.trackMinMax {
		return
	}
	if a.min.IsNull() {
		a.min, a.max = v, v
		return
	}
	if c, err := v.Compare(a.min); err == nil && c < 0 {
		a.min = v
	}
	if c, err := v.Compare(a.max); err == nil && c > 0 {
		a.max = v
	}
}

// addFloat folds one non-NULL float observation without boxing it — the
// columnar kernel path, valid only for non-DISTINCT accumulators that do
// not track min/max (those need the Value form; the batch kernel gate
// checks). Identical to add(Float(f), false) for the eligible specs.
func (a *accum) addFloat(f float64) {
	a.n++
	if a.trackSum {
		a.sum += f
	}
	if a.trackMoments {
		a.m.add(f)
	}
	if a.holistic {
		a.vals = append(a.vals, f)
	}
}

// merge folds another accumulator into a.
func (a *accum) merge(b *accum) {
	a.n += b.n
	a.sum += b.sum
	a.isum += b.isum
	a.m.merge(b.m)
	if !a.trackMinMax {
		// untracked extremes stay NULL on both sides: nothing to fold
	} else if a.min.IsNull() {
		a.min, a.max = b.min, b.max
	} else if !b.min.IsNull() {
		if c, err := b.min.Compare(a.min); err == nil && c < 0 {
			a.min = b.min
		}
		if c, err := b.max.Compare(a.max); err == nil && c > 0 {
			a.max = b.max
		}
	}
	if a.distinct != nil && b.distinct != nil {
		for v, n := range b.distinct {
			a.distinct[v] += n
		}
	}
	if a.holistic {
		a.vals = append(a.vals, b.vals...)
	}
}

// result finalises the accumulator into the aggregate's output value.
// Empty groups yield NULL for all aggregates except count, which yields 0.
func (a *accum) result(spec AggSpec, argKind Kind) Value {
	if spec.Distinct {
		switch spec.Func {
		case AggCount:
			return Int(int64(len(a.distinct)))
		case AggSum, AggAvg, AggStdev:
			// Fold in sorted order: map iteration order is random, and
			// float sums are order-dependent, so sorting is what makes
			// DISTINCT results reproducible run to run.
			var sum float64
			var isum int64
			var m moments
			for _, v := range sortedDistinct(a.distinct) {
				f := v.AsFloat()
				sum += f
				m.add(f)
				if v.Kind() == KindInt {
					isum += v.AsInt()
				}
			}
			return finishNumeric(spec, argKind, m.n, sum, isum, m)
		case AggMedian, AggPercentile:
			vals := make([]float64, 0, len(a.distinct))
			for v := range a.distinct {
				vals = append(vals, v.AsFloat())
			}
			return quantileValue(vals, spec.quantile())
		}
		// min/max are unaffected by DISTINCT.
	}
	switch spec.Func {
	case AggCount:
		return Int(a.n)
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	case AggMedian, AggPercentile:
		return quantileValue(append([]float64(nil), a.vals...), spec.quantile())
	default:
		return finishNumeric(spec, argKind, a.n, a.sum, a.isum, a.m)
	}
}

// sortedDistinct returns the distinct values in a deterministic total
// order (Compare where defined, string rendering otherwise).
func sortedDistinct(distinct map[Value]int64) []Value {
	vals := make([]Value, 0, len(distinct))
	for v := range distinct {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return lessValue(vals[i], vals[j]) })
	return vals
}

// quantileValue computes the nearest-rank quantile, consuming vals.
func quantileValue(vals []float64, q float64) Value {
	if len(vals) == 0 {
		return Null()
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(q * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(vals) {
		rank = len(vals)
	}
	return Float(vals[rank-1])
}

func finishNumeric(spec AggSpec, argKind Kind, n int64, sum float64, isum int64, m moments) Value {
	if n == 0 {
		return Null()
	}
	switch spec.Func {
	case AggSum:
		if argKind == KindInt {
			return Int(isum)
		}
		return Float(sum)
	case AggAvg, AggStdev:
		if m.n == 0 { // non-NULL but non-numeric observations only
			return Null()
		}
		if spec.Func == AggAvg {
			return Float(m.mean())
		}
		return Float(math.Sqrt(m.variance()))
	}
	return Null()
}
