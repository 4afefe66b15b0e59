package stream

import (
	"fmt"
	"sort"
	"time"
)

// Graph is a multi-input executable plan: named input legs, each a Chain,
// optionally fanned into an EpochCombiner whose output runs through a
// final post chain. The CQL planner produces Graphs; the ESP processor
// executes them.
//
// Single-input queries have one leg and no combiner. Union semantics (the
// paper's Merge stage unioning a proximity group's streams, or Arbitrate
// running "over the union of the streams produced by Query 2") are
// expressed by registering several input names onto the same leg chain.
type Graph struct {
	legs     map[string]*graphLeg
	legOrder []string
	combiner *EpochCombiner
	post     *Chain
	opened   bool
	// degraded latches whether the last PushBatch left the columnar
	// representation anywhere inside (see BatchDegradeReporter).
	degraded bool
}

type graphLeg struct {
	chain *Chain
	in    *Schema
	// combineIdx is the combiner input this leg feeds (-1 = direct).
	combineIdx int
	// shared marks chains registered under several names so Advance and
	// Close visit them once.
	primary bool
}

// NewGraph returns an empty graph; add legs with AddLeg/ShareLeg, then
// optionally SetCombiner and SetPost, then Open.
func NewGraph() *Graph {
	return &Graph{legs: make(map[string]*graphLeg)}
}

// AddLeg registers an input stream by name with its schema and per-leg
// chain (nil chain = identity).
func (g *Graph) AddLeg(name string, in *Schema, chain *Chain) error {
	if _, dup := g.legs[name]; dup {
		return fmt.Errorf("stream: graph: duplicate leg %q", name)
	}
	if chain == nil {
		chain = NewChain()
	}
	g.legs[name] = &graphLeg{chain: chain, in: in, combineIdx: -1, primary: true}
	g.legOrder = append(g.legOrder, name)
	return nil
}

// ShareLeg registers an additional input name onto an existing leg's
// chain (union semantics). The schemas must match.
func (g *Graph) ShareLeg(name, existing string) error {
	leg, ok := g.legs[existing]
	if !ok {
		return fmt.Errorf("stream: graph: ShareLeg: unknown leg %q", existing)
	}
	if _, dup := g.legs[name]; dup {
		return fmt.Errorf("stream: graph: duplicate leg %q", name)
	}
	g.legs[name] = &graphLeg{chain: leg.chain, in: leg.in, combineIdx: leg.combineIdx, primary: false}
	g.legOrder = append(g.legOrder, name)
	return nil
}

// SetCombiner installs an epoch combiner fed by the given legs in order.
func (g *Graph) SetCombiner(c *EpochCombiner, legNames ...string) error {
	if len(legNames) != len(c.Inputs) {
		return fmt.Errorf("stream: graph: combiner has %d inputs, %d legs given", len(c.Inputs), len(legNames))
	}
	for i, n := range legNames {
		leg, ok := g.legs[n]
		if !ok {
			return fmt.Errorf("stream: graph: SetCombiner: unknown leg %q", n)
		}
		leg.combineIdx = i
	}
	g.combiner = c
	return nil
}

// SetPost installs the chain applied after the legs (and combiner, if any).
func (g *Graph) SetPost(post *Chain) { g.post = post }

// Open binds every chain and the combiner.
func (g *Graph) Open() error {
	if g.opened {
		return fmt.Errorf("stream: graph: Open called twice")
	}
	var combinedIn *Schema
	for _, name := range g.legOrder {
		leg := g.legs[name]
		if !leg.primary {
			continue
		}
		if err := leg.chain.Open(leg.in); err != nil {
			return fmt.Errorf("stream: graph leg %q: %w", name, err)
		}
		if leg.combineIdx >= 0 {
			if err := g.combiner.bindInput(leg.combineIdx, leg.chain.Schema()); err != nil {
				return fmt.Errorf("stream: graph leg %q: %w", name, err)
			}
		} else {
			combinedIn = leg.chain.Schema()
		}
	}
	if g.combiner != nil {
		out, err := g.combiner.open()
		if err != nil {
			return err
		}
		combinedIn = out
	}
	if g.post == nil {
		g.post = NewChain()
	}
	if combinedIn == nil {
		return fmt.Errorf("stream: graph has no legs")
	}
	if err := g.post.Open(combinedIn); err != nil {
		return fmt.Errorf("stream: graph post: %w", err)
	}
	g.opened = true
	return nil
}

// Schema reports the output schema. Only valid after Open.
func (g *Graph) Schema() *Schema { return g.post.Schema() }

// InputSchema reports the expected schema of the named input leg.
func (g *Graph) InputSchema(name string) (*Schema, bool) {
	leg, ok := g.legs[name]
	if !ok {
		return nil, false
	}
	return leg.in, true
}

// Inputs lists the input leg names in registration order.
func (g *Graph) Inputs() []string { return append([]string(nil), g.legOrder...) }

// Linear reports the graph's operators in execution order when the graph
// is a straight line — one input leg and no combiner, the shape of every
// single-stream query — so a caller can rewrite the plan as a whole.
func (g *Graph) Linear() ([]Operator, bool) {
	if len(g.legOrder) != 1 || g.combiner != nil {
		return nil, false
	}
	ops := append([]Operator(nil), g.legs[g.legOrder[0]].chain.Ops...)
	if g.post != nil {
		ops = append(ops, g.post.Ops...)
	}
	return ops, true
}

// Push feeds one tuple into the named input leg and returns any output
// tuples that flow all the way through.
func (g *Graph) Push(input string, t Tuple) ([]Tuple, error) {
	leg, ok := g.legs[input]
	if !ok {
		return nil, fmt.Errorf("stream: graph: unknown input %q", input)
	}
	out, err := leg.chain.Process(t)
	if err != nil {
		return nil, err
	}
	return g.route(leg, out)
}

func (g *Graph) route(leg *graphLeg, tuples []Tuple) ([]Tuple, error) {
	if len(tuples) == 0 {
		return nil, nil
	}
	if leg.combineIdx >= 0 {
		for _, t := range tuples {
			g.combiner.push(leg.combineIdx, t)
		}
		return nil, nil
	}
	var result []Tuple
	for _, t := range tuples {
		out, err := g.post.Process(t)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = out
		} else {
			result = append(result, out...)
		}
	}
	return result, nil
}

// Advance punctuates every leg, then the combiner, then the post chain.
func (g *Graph) Advance(now time.Time) ([]Tuple, error) {
	var result []Tuple
	for _, name := range g.legOrder {
		leg := g.legs[name]
		if !leg.primary {
			continue
		}
		released, err := leg.chain.Advance(now)
		if err != nil {
			return nil, err
		}
		out, err := g.route(leg, released)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = out
		} else {
			result = append(result, out...)
		}
	}
	if g.combiner != nil {
		combined, err := g.combiner.advance(now)
		if err != nil {
			return nil, err
		}
		for _, t := range combined {
			out, err := g.post.Process(t)
			if err != nil {
				return nil, err
			}
			result = append(result, out...)
		}
	}
	out, err := g.post.Advance(now)
	if err != nil {
		return nil, err
	}
	if result == nil {
		return out, nil
	}
	return append(result, out...), nil
}

// WindowTelemetry implements WindowTelemetrySource by summing over the
// graph's leg chains and post chain.
func (g *Graph) WindowTelemetry() (panes, lateDrops int64) {
	for _, name := range g.legOrder {
		leg := g.legs[name]
		if !leg.primary {
			continue
		}
		p, d := leg.chain.WindowTelemetry()
		panes += p
		lateDrops += d
	}
	if g.post != nil {
		p, d := g.post.WindowTelemetry()
		panes += p
		lateDrops += d
	}
	return panes, lateDrops
}

// Close flushes all legs, the combiner, and the post chain.
func (g *Graph) Close() ([]Tuple, error) {
	var result []Tuple
	for _, name := range g.legOrder {
		leg := g.legs[name]
		if !leg.primary {
			continue
		}
		released, err := leg.chain.Close()
		if err != nil {
			return nil, err
		}
		out, err := g.route(leg, released)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = out
		} else {
			result = append(result, out...)
		}
	}
	if g.combiner != nil {
		combined, err := g.combiner.advance(time.Time{})
		if err != nil {
			return nil, err
		}
		for _, t := range combined {
			out, err := g.post.Process(t)
			if err != nil {
				return nil, err
			}
			result = append(result, out...)
		}
	}
	out, err := g.post.Close()
	if err != nil {
		return nil, err
	}
	return append(result, out...), nil
}

// CombineInput describes one input of an EpochCombiner.
type CombineInput struct {
	// Prefix qualifies the input's field names in the combined schema
	// (e.g. "rfid_count."); may be empty if names don't clash.
	Prefix string
	// Default supplies the input's values for epochs in which it produced
	// no tuple. nil means the input contributes NULLs when absent.
	Default []Value

	schema *Schema
}

// EpochCombiner joins the latest tuple per input within each punctuation
// epoch into one wide tuple — the execution strategy for the paper's
// Virtualize-stage Query 6, where per-receptor-type vote subqueries are
// combined and thresholded once per epoch. If an input emitted several
// tuples in the epoch, the last one wins.
type EpochCombiner struct {
	Inputs []CombineInput

	out     *Schema
	current [][]Value // latest values per input this epoch (nil = absent)
	seen    bool      // any input produced a tuple this epoch
}

// bindInput records the schema of input i (called by Graph.Open).
func (c *EpochCombiner) bindInput(i int, s *Schema) error {
	if i < 0 || i >= len(c.Inputs) {
		return fmt.Errorf("stream: combiner: input %d out of range", i)
	}
	c.Inputs[i].schema = s
	if d := c.Inputs[i].Default; d != nil && len(d) != s.Len() {
		return fmt.Errorf("stream: combiner input %d: default arity %d != schema arity %d", i, len(d), s.Len())
	}
	return nil
}

// open builds the combined output schema.
func (c *EpochCombiner) open() (*Schema, error) {
	var fields []Field
	for i, in := range c.Inputs {
		if in.schema == nil {
			return nil, fmt.Errorf("stream: combiner input %d has no schema (leg not bound)", i)
		}
		for _, f := range in.schema.Fields() {
			fields = append(fields, Field{Name: in.Prefix + f.Name, Kind: f.Kind})
		}
	}
	out, err := NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("stream: combiner: %w (set distinct Prefixes)", err)
	}
	c.out = out
	c.current = make([][]Value, len(c.Inputs))
	return out, nil
}

func (c *EpochCombiner) push(i int, t Tuple) {
	c.current[i] = t.Values
	c.seen = true
}

// advance emits the combined tuple for the closing epoch and resets.
// Epochs in which no input produced anything emit nothing.
func (c *EpochCombiner) advance(now time.Time) ([]Tuple, error) {
	if !c.seen {
		return nil, nil
	}
	vals := make([]Value, 0, c.out.Len())
	for i, in := range c.Inputs {
		cur := c.current[i]
		switch {
		case cur != nil:
			vals = append(vals, cur...)
		case in.Default != nil:
			vals = append(vals, in.Default...)
		default:
			for range in.schema.Fields() {
				vals = append(vals, Null())
			}
		}
		c.current[i] = nil
	}
	c.seen = false
	return []Tuple{{Ts: now, Values: vals}}, nil
}

// sortTuples orders tuples by timestamp then values; used by tests and
// deterministic trace output.
func sortTuples(ts []Tuple) {
	sort.SliceStable(ts, func(i, j int) bool {
		if !ts[i].Ts.Equal(ts[j].Ts) {
			return ts[i].Ts.Before(ts[j].Ts)
		}
		return lessValues(ts[i].Values, ts[j].Values)
	})
}

// SortTuples orders tuples by timestamp then values, in place.
func SortTuples(ts []Tuple) { sortTuples(ts) }
