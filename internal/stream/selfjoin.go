package stream

import (
	"fmt"
	"sort"
	"time"
)

// SelfJoin joins each tuple of a windowed stream with the aggregate row of
// its own group over the same window — the execution strategy for the
// paper's Query 5 (Merge-stage outlier detection), which compares each
// temperature reading against the window's per-granule avg ± stdev:
//
//	SELECT s.*, a.<aggs> FROM input s [Range By 'd'],
//	     (SELECT <groups>, <aggs> FROM input [Range By 'd'] GROUP BY <groups>) a
//	WHERE a.<groups> = s.<groups>
//
// At each window boundary b the operator computes the subquery aggregates
// over the window (b-Range, b], then emits one combined tuple per buffered
// raw tuple, timestamped b. Residual WHERE predicates and outer
// aggregation are applied downstream (the combined tuples form one epoch,
// so the outer aggregate uses a NOW window).
type SelfJoin struct {
	// Range is the window length; Slide the emission period (zero Range
	// means NOW, i.e. Range = Slide).
	Range, Slide time.Duration
	// RawPrefix and AggPrefix qualify the two sides' columns in the
	// output schema (e.g. "s." and "a."). They may be empty only if the
	// names don't clash.
	RawPrefix, AggPrefix string
	// GroupBy are the join/group expressions, evaluated on the raw schema.
	GroupBy []NamedExpr
	// Aggs are the subquery's aggregate columns.
	Aggs []AggSpec

	in, out  *Schema
	argKinds []Kind
	started  bool
	origin   time.Time
	nextEmit time.Time
	buffer   []Tuple
}

// Open implements Operator.
func (s *SelfJoin) Open(in *Schema) error {
	if s.Slide <= 0 {
		return fmt.Errorf("stream: selfjoin: slide must be positive")
	}
	if s.Range == 0 {
		s.Range = s.Slide
	}
	if s.Range < 0 {
		return fmt.Errorf("stream: selfjoin: negative range %v", s.Range)
	}
	s.in = in
	var fields []Field
	for _, f := range in.Fields() {
		fields = append(fields, Field{Name: s.RawPrefix + f.Name, Kind: f.Kind})
	}
	for _, g := range s.GroupBy {
		k, err := g.Expr.Bind(in)
		if err != nil {
			return fmt.Errorf("stream: selfjoin group %q: %w", g.Name, err)
		}
		fields = append(fields, Field{Name: s.AggPrefix + g.Name, Kind: k})
	}
	s.argKinds = make([]Kind, len(s.Aggs))
	for i, a := range s.Aggs {
		argKind := KindNull
		if a.Arg != nil {
			k, err := a.Arg.Bind(in)
			if err != nil {
				return fmt.Errorf("stream: selfjoin agg %s: %w", a, err)
			}
			argKind = k
		} else if a.Func != AggCount {
			return fmt.Errorf("stream: selfjoin agg %s: only count may omit its argument", a)
		}
		s.argKinds[i] = argKind
		rk, err := a.resultKind(argKind)
		if err != nil {
			return err
		}
		fields = append(fields, Field{Name: s.AggPrefix + a.Name, Kind: rk})
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return fmt.Errorf("stream: selfjoin: %w (set distinct prefixes)", err)
	}
	s.out = out
	return nil
}

// Schema implements Operator.
func (s *SelfJoin) Schema() *Schema { return s.out }

// Process implements Operator.
func (s *SelfJoin) Process(t Tuple) ([]Tuple, error) {
	s.buffer = append(s.buffer, t)
	return nil, nil
}

// Advance implements Operator.
func (s *SelfJoin) Advance(now time.Time) ([]Tuple, error) {
	if !s.started {
		s.started = true
		s.origin = now
		s.nextEmit = now
	}
	var out []Tuple
	for !s.nextEmit.After(now) {
		emitted, err := s.emit(s.nextEmit)
		if err != nil {
			return nil, err
		}
		out = append(out, emitted...)
		s.nextEmit = s.nextEmit.Add(s.Slide)
	}
	return out, nil
}

// Close implements Operator.
func (s *SelfJoin) Close() ([]Tuple, error) {
	if len(s.buffer) == 0 {
		return nil, nil
	}
	if !s.started {
		s.nextEmit = s.buffer[len(s.buffer)-1].Ts
		s.started = true
	}
	return s.emit(s.nextEmit)
}

// paneCell is one group's partial aggregates within an emission.
type paneCell struct {
	groupVals []Value
	accums    []accum
}

func (s *SelfJoin) emit(b time.Time) ([]Tuple, error) {
	lo := b.Add(-s.Range)
	live := s.buffer[:0]
	for _, t := range s.buffer {
		if t.Ts.After(lo) {
			live = append(live, t)
		}
	}
	s.buffer = live
	type entry struct {
		tuple  Tuple
		key    GroupKey
		groups []Value
	}
	var window []entry
	cells := make(map[GroupKey]*paneCell)
	for _, t := range s.buffer {
		if t.Ts.After(b) {
			continue
		}
		groups := make([]Value, len(s.GroupBy))
		for i, g := range s.GroupBy {
			v, err := g.Expr.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("stream: selfjoin group %q: %w", g.Name, err)
			}
			groups[i] = v
		}
		key := MakeGroupKey(groups...)
		cell := cells[key]
		if cell == nil {
			cell = &paneCell{groupVals: groups, accums: make([]accum, len(s.Aggs))}
			for i, a := range s.Aggs {
				cell.accums[i] = mkAccum(a)
			}
			cells[key] = cell
		}
		for i, a := range s.Aggs {
			if a.Arg == nil {
				cell.accums[i].add(Null(), true)
				continue
			}
			v, err := a.Arg.Eval(t)
			if err != nil {
				return nil, fmt.Errorf("stream: selfjoin agg %s: %w", a, err)
			}
			cell.accums[i].add(v, false)
		}
		window = append(window, entry{tuple: t, key: key, groups: groups})
	}
	if len(window) == 0 {
		return nil, nil
	}
	sort.SliceStable(window, func(i, j int) bool {
		if !window[i].tuple.Ts.Equal(window[j].tuple.Ts) {
			return window[i].tuple.Ts.Before(window[j].tuple.Ts)
		}
		return lessValues(window[i].tuple.Values, window[j].tuple.Values)
	})
	out := make([]Tuple, 0, len(window))
	for _, e := range window {
		cell := cells[e.key]
		vals := make([]Value, 0, s.out.Len())
		vals = append(vals, e.tuple.Values...)
		vals = append(vals, e.groups...)
		for i, a := range s.Aggs {
			vals = append(vals, cell.accums[i].result(a, s.argKinds[i]))
		}
		out = append(out, Tuple{Ts: b, Values: vals})
	}
	return out, nil
}
