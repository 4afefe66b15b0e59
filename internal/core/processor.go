package core

import (
	"fmt"
	"log/slog"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
	"esp/internal/telemetry"
)

// Pipeline configures the cleaning stages for one receptor type. Any
// stage may be nil (skipped): the RFID deployment uses Smooth+Arbitrate,
// the redwood deployment Point+Smooth+Merge, etc.
type Pipeline struct {
	Type receptor.Type
	// Point and Smooth are instantiated once per (receptor, group) pair
	// and see the receptor's annotated stream.
	Point, Smooth Stage
	// Merge is instantiated once per proximity group and sees the union
	// of the group members' Point/Smooth outputs.
	Merge Stage
	// Arbitrate is instantiated once per type and sees the union of all
	// the type's group streams.
	Arbitrate Stage
}

// VirtualizeSpec configures the cross-type Virtualize stage as a CQL
// query whose base stream names are bound to receptor types: each name
// reads that type's cleaned output stream.
type VirtualizeSpec struct {
	Query string
	Bind  map[string]receptor.Type
}

// Deployment describes a complete ESP installation: the devices, their
// proximity groups, a pipeline per receptor type, and the processing
// epoch (the temporal granule of punctuation).
type Deployment struct {
	// Epoch is the punctuation period: stage windows slide once per
	// epoch and NOW windows cover one epoch.
	Epoch time.Duration
	// Receptors are the physical devices; every receptor must belong to
	// at least one proximity group.
	Receptors []receptor.Receptor
	// Groups is the proximity-group registry.
	Groups *receptor.Groups
	// Pipelines maps receptor types to their cleaning pipelines. Types
	// without a pipeline pass through annotated but uncleaned.
	Pipelines map[receptor.Type]*Pipeline
	// Virtualize, if set, combines the per-type outputs.
	Virtualize *VirtualizeSpec
	// Tables are static relations available to CQL stages.
	Tables map[string]*stream.Table
	// TieBreak resolves Arbitrate ties (paper §4.3.1).
	TieBreak func(a, b stream.Tuple) bool
	// DisableBatching pins every leg to the row-at-a-time path. Columnar
	// batches originate only at legs, so this single gate disables batch
	// execution deployment-wide; the oracle's batched-vs-tuple
	// differential runs both settings and demands identical output.
	DisableBatching bool
	// DisableOptimizer turns off the CQL plan-rewrite pass for every
	// stage built in this deployment (the optimizer's kill switch; the
	// oracle's optimized-vs-unoptimized differential runs both settings).
	DisableOptimizer bool
	// DisablePartitioning keeps one node per leg and per proximity group
	// even where a type's stages could be built once for the whole type
	// (partition.go); the oracle's partitioned-vs-per-leg differential
	// runs both settings and demands that every type's sink stream and
	// every tap stream be identical. How different types' rows interleave
	// in a sink they share is only kept when each type's receptors are
	// adjacent in Receptors: a type built once runs at its first receptor.
	DisablePartitioning bool
}

// Processor executes a Deployment. At construction it compiles the
// deployment into an explicit dataflow DAG of uniform nodes (node.go) —
// one leg per (receptor, proximity group) and one Merge per group, or
// one legs and one merges node per type where the stage plans can be
// built once for the whole type (partition.go); one Arbitrate and one
// output fan-out per type, one Virtualize — and each
// epoch it polls the receptors, pushes the batches through the graph
// and punctuates every node in pipeline order so results are
// deterministic.
type Processor struct {
	dep *Deployment
	env BuildEnv

	graph *dag
	sup   *supervisor // nil until EnableSupervision
	// polled is Step's reused per-receptor batch table.
	polled [][]stream.Tuple

	// typeOrder lists receptor types in first-leg order — the order
	// type-level nodes are constructed and punctuated in.
	typeOrder  []receptor.Type
	typeSchema map[receptor.Type]*stream.Schema

	virt        *virtNode // nil if the deployment has no Virtualize stage
	virtInputOf map[receptor.Type]string

	taps       map[tapKey][]func(stream.Tuple)
	typeSinks  map[receptor.Type][]func(stream.Tuple)
	virtSinks  []func(stream.Tuple)
	epochSinks []func(time.Time)

	// Unified telemetry (telemetry.go): the registry holds every node
	// counter, stage counter, latency histogram, and gauge; lin records
	// sampled tuple lineage; logger receives structured runtime events.
	tel       *telemetry.Registry
	lin       *telemetry.Lineage
	logger    *slog.Logger
	typeStage map[receptor.Type]*stageCounters
	virtOut   *telemetry.Counter
	recTypes  []receptor.Type
}

type tapKey struct {
	typ   receptor.Type
	stage StageKind
}

// annotFix re-attaches constant annotation columns a stage projected
// away, so downstream stages always see receptor_id / spatial_granule.
type annotFix struct {
	prepend []stream.Value // values to prepend (possibly empty)
	schema  *stream.Schema
}

func (f *annotFix) apply(ts []stream.Tuple) []stream.Tuple {
	if len(f.prepend) == 0 || len(ts) == 0 {
		return ts
	}
	out := make([]stream.Tuple, len(ts))
	for i, t := range ts {
		vals := make([]stream.Value, 0, len(f.prepend)+len(t.Values))
		vals = append(vals, f.prepend...)
		vals = append(vals, t.Values...)
		out[i] = stream.Tuple{Ts: t.Ts, Values: vals}
	}
	return out
}

// newAnnotFix builds the fix-up for a stage output: any of the wanted
// (name, value) pairs missing from the schema are prepended as constants.
func newAnnotFix(out *stream.Schema, want []stream.Field, vals []stream.Value) (*annotFix, error) {
	fix := &annotFix{}
	var fields []stream.Field
	for i, f := range want {
		if _, ok := out.Index(f.Name); ok {
			continue
		}
		fields = append(fields, f)
		fix.prepend = append(fix.prepend, vals[i])
	}
	schema, err := stream.NewSchema(append(fields, out.Fields()...)...)
	if err != nil {
		return nil, err
	}
	fix.schema = schema
	return fix, nil
}

// annotated builds the schema of a receptor stream with the processor's
// annotation columns prepended.
func annotated(device *stream.Schema) (*stream.Schema, error) {
	fields := []stream.Field{
		{Name: ColReceptorID, Kind: stream.KindString},
		{Name: ColGranule, Kind: stream.KindString},
	}
	return stream.NewSchema(append(fields, device.Fields()...)...)
}

// StripAnnotation removes the processor's annotation columns from a
// cleaned output schema and returns the stripped schema plus a projector
// for tuples. Use it when feeding one processor's output into another as
// a receptor stream (hierarchical, HiFi-style composition): the parent
// re-annotates with its own receptor IDs and granules.
func StripAnnotation(sch *stream.Schema) (*stream.Schema, func(stream.Tuple) stream.Tuple, error) {
	var keep []int
	var fields []stream.Field
	for i := 0; i < sch.Len(); i++ {
		f := sch.Field(i)
		if f.Name == ColReceptorID || f.Name == ColGranule {
			continue
		}
		keep = append(keep, i)
		fields = append(fields, f)
	}
	stripped, err := stream.NewSchema(fields...)
	if err != nil {
		return nil, nil, fmt.Errorf("core: StripAnnotation: %w", err)
	}
	project := func(t stream.Tuple) stream.Tuple {
		vals := make([]stream.Value, len(keep))
		for j, i := range keep {
			vals[j] = t.Values[i]
		}
		return stream.Tuple{Ts: t.Ts, Values: vals}
	}
	return stripped, project, nil
}

// dagBuilder accumulates nodes during deployment compilation. Nodes are
// appended in topological order — legs, merges, arbitrates, outputs,
// virtualize — which is also the order nodes are punctuated in.
type dagBuilder struct {
	nodes []node
	// legs lists every (receptor, group) leg in construction order and
	// merges every Merge node, whichever node kind serves them.
	legs         []legRef
	merges       []mergeRef
	mergeOfGroup map[string]int
	// typeMerges holds, for a type whose legs buildLegs tried to collapse,
	// the mergesNode built with them (nil: the Merge does not collapse).
	typeMerges map[receptor.Type]*mergesNode
	arbOf      map[receptor.Type]int
	outOf      map[receptor.Type]int
}

// legRef is one (receptor, proximity group) leg: served by its own
// legNode, or one member of a type's legsNode.
type legRef struct {
	node  int
	typ   receptor.Type
	group string
	out   *stream.Schema
	// granuleOwned reports that the output's spatial_granule column is
	// the processor's annotation — the leg's group — rather than a column
	// of that name the leg's own stages computed.
	granuleOwned bool
}

// mergeRef is one Merge node: a group's mergeNode or a type's mergesNode.
type mergeRef struct {
	node int
	typ  receptor.Type
	out  *stream.Schema
}

func (b *dagBuilder) add(n node) int {
	b.nodes = append(b.nodes, n)
	return len(b.nodes) - 1
}

// appendEdge adds an edge from node from unless ups already has one.
func appendEdge(ups []upEdge, from int) []upEdge {
	for _, e := range ups {
		if e.from == from {
			return ups
		}
	}
	return append(ups, upEdge{from: from})
}

// typeFeed reports the nodes feeding a type's type-level stage (the
// type's Merge nodes if any, else its leg nodes) and their shared schema.
func (b *dagBuilder) typeFeed(t receptor.Type) ([]upEdge, *stream.Schema) {
	var ups []upEdge
	var sch *stream.Schema
	for _, m := range b.merges {
		if m.typ == t {
			ups = appendEdge(ups, m.node)
			if sch == nil {
				sch = m.out
			}
		}
	}
	if ups != nil {
		return ups, sch
	}
	for _, leg := range b.legs {
		if leg.typ == t {
			ups = appendEdge(ups, leg.node)
			if sch == nil {
				sch = leg.out
			}
		}
	}
	return ups, sch
}

// NewProcessor validates and compiles a deployment: every stage instance
// is constructed and opened, all schema compatibility is checked, and
// the dataflow graph is assembled, before any data flows.
func NewProcessor(dep *Deployment) (*Processor, error) {
	if dep.Epoch <= 0 {
		return nil, fmt.Errorf("core: deployment epoch must be positive")
	}
	if len(dep.Receptors) == 0 {
		return nil, fmt.Errorf("core: deployment has no receptors")
	}
	if dep.Groups == nil {
		return nil, fmt.Errorf("core: deployment has no proximity groups")
	}
	p := &Processor{
		dep: dep,
		tel: telemetry.NewRegistry(),

		typeSchema:  make(map[receptor.Type]*stream.Schema),
		virtInputOf: make(map[receptor.Type]string),
		taps:        make(map[tapKey][]func(stream.Tuple)),
		typeSinks:   make(map[receptor.Type][]func(stream.Tuple)),
	}
	// Live resolves through the processor at call time, so stages built
	// now still see supervision enabled later.
	p.env = BuildEnv{Epoch: dep.Epoch, Tables: dep.Tables, TieBreak: dep.TieBreak, Live: liveView{p: p}, NoOptimize: dep.DisableOptimizer}
	b := &dagBuilder{
		mergeOfGroup: make(map[string]int),
		typeMerges:   make(map[receptor.Type]*mergesNode),
		arbOf:        make(map[receptor.Type]int),
		outOf:        make(map[receptor.Type]int),
	}
	if err := p.buildLegs(b); err != nil {
		return nil, err
	}
	if err := p.buildMerges(b); err != nil {
		return nil, err
	}
	if err := p.buildArbitrates(b); err != nil {
		return nil, err
	}
	p.buildOutputs(b)
	if err := p.buildVirtualize(b); err != nil {
		return nil, err
	}
	g, err := compileDag(p, b.nodes)
	if err != nil {
		return nil, err
	}
	p.graph = g
	p.initTelemetry()
	return p, nil
}

func (p *Processor) pipelineFor(t receptor.Type) *Pipeline {
	if p.dep.Pipelines == nil {
		return nil
	}
	return p.dep.Pipelines[t]
}

func (p *Processor) buildLegs(b *dagBuilder) error {
	seen := make(map[string]bool)
	// collapsed[t] is decided at t's first receptor: the type's legsNode
	// index, or -1 when the type keeps one node per leg.
	collapsed := make(map[receptor.Type]int)
	for _, rec := range p.dep.Receptors {
		if seen[rec.ID()] {
			return fmt.Errorf("core: duplicate receptor %q", rec.ID())
		}
		seen[rec.ID()] = true
		groups := p.dep.Groups.Of(rec.ID())
		if len(groups) == 0 {
			return fmt.Errorf("core: receptor %q belongs to no proximity group", rec.ID())
		}
		at, decided := collapsed[rec.Type()]
		if !decided {
			at = -1
			if n := p.collapseLegs(rec.Type()); n != nil {
				refs := make([]legRef, len(n.members))
				for i, m := range n.members {
					refs[i] = legRef{node: len(b.nodes), typ: n.typ, group: m.group, out: n.out, granuleOwned: true}
				}
				// A per-group Merge node would need the type's rows addressed
				// to it group by group, so the legs collapse only if their
				// Merge, where there is one, collapses with them.
				ok := true
				if pl := p.pipelineFor(n.typ); pl != nil && pl.Merge != nil {
					merges := p.typeMerges(n.typ, pl.Merge, refs)
					b.typeMerges[n.typ] = merges
					ok = merges != nil
				}
				if ok {
					at = b.add(n)
					b.legs = append(b.legs, refs...)
				}
			}
			collapsed[rec.Type()] = at
		}
		if at >= 0 {
			continue
		}
		inSch, err := annotated(rec.Schema())
		if err != nil {
			return fmt.Errorf("core: receptor %q: %w", rec.ID(), err)
		}
		pl := p.pipelineFor(rec.Type())
		for _, g := range groups {
			leg := &legNode{
				rec: rec, group: g, typ: rec.Type(), inSch: inSch,
				prefix:  []stream.Value{stream.String(rec.ID()), stream.String(g)},
				noBatch: p.dep.DisableBatching,
			}
			cur := inSch
			if pl != nil && pl.Point != nil {
				op, err := pl.Point.Build(cur, p.env)
				if err != nil {
					return fmt.Errorf("core: %s Point for %q: %w", rec.Type(), rec.ID(), err)
				}
				if err := op.Open(cur); err != nil {
					return fmt.Errorf("core: %s Point for %q: %w", rec.Type(), rec.ID(), err)
				}
				leg.point = op
				cur = op.Schema()
			}
			if pl != nil && pl.Smooth != nil {
				op, err := pl.Smooth.Build(cur, p.env)
				if err != nil {
					return fmt.Errorf("core: %s Smooth for %q: %w", rec.Type(), rec.ID(), err)
				}
				if err := op.Open(cur); err != nil {
					return fmt.Errorf("core: %s Smooth for %q: %w", rec.Type(), rec.ID(), err)
				}
				leg.smooth = op
				cur = op.Schema()
			}
			_, computed := cur.Index(ColGranule)
			fix, err := newAnnotFix(cur,
				[]stream.Field{
					{Name: ColReceptorID, Kind: stream.KindString},
					{Name: ColGranule, Kind: stream.KindString},
				},
				[]stream.Value{stream.String(rec.ID()), stream.String(g)},
			)
			if err != nil {
				return fmt.Errorf("core: %s leg %q/%q: %w", rec.Type(), rec.ID(), g, err)
			}
			leg.fix = fix
			leg.out = fix.schema
			// A stage-less leg's granule column is the input annotation.
			owned := !computed || (leg.point == nil && leg.smooth == nil)
			b.legs = append(b.legs, legRef{node: b.add(leg), typ: leg.typ, group: g, out: leg.out, granuleOwned: owned})
		}
	}
	// All legs of one type must agree on their output schema (their
	// streams are unioned downstream).
	byType := make(map[receptor.Type]*stream.Schema)
	for _, leg := range b.legs {
		if prev, ok := byType[leg.typ]; ok {
			if !prev.Equal(leg.out) {
				return fmt.Errorf("core: %s legs produce differing schemas: %s vs %s", leg.typ, prev, leg.out)
			}
			continue
		}
		byType[leg.typ] = leg.out
	}
	return nil
}

func (p *Processor) buildMerges(b *dagBuilder) error {
	// collapsed[t] is decided at t's first leg, like buildLegs'.
	collapsed := make(map[receptor.Type]bool)
	for _, leg := range b.legs {
		pl := p.pipelineFor(leg.typ)
		if pl == nil || pl.Merge == nil {
			continue
		}
		done, decided := collapsed[leg.typ]
		if !decided {
			// Already settled, either way, if buildLegs tried to collapse
			// the type's legs.
			n, tried := b.typeMerges[leg.typ]
			if !tried {
				n = p.typeMerges(leg.typ, pl.Merge, b.legs)
			}
			if done = n != nil; done {
				b.merges = append(b.merges, mergeRef{node: b.add(n), typ: leg.typ, out: n.out})
			}
			collapsed[leg.typ] = done
		}
		if done {
			continue
		}
		mi, ok := b.mergeOfGroup[leg.group]
		if !ok {
			env := p.env
			env.Group = leg.group
			op, err := pl.Merge.Build(leg.out, env)
			if err != nil {
				return fmt.Errorf("core: %s Merge for group %q: %w", leg.typ, leg.group, err)
			}
			if err := op.Open(leg.out); err != nil {
				return fmt.Errorf("core: %s Merge for group %q: %w", leg.typ, leg.group, err)
			}
			fix, err := newAnnotFix(op.Schema(),
				[]stream.Field{{Name: ColGranule, Kind: stream.KindString}},
				[]stream.Value{stream.String(leg.group)},
			)
			if err != nil {
				return fmt.Errorf("core: %s Merge for group %q: %w", leg.typ, leg.group, err)
			}
			m := &mergeNode{group: leg.group, typ: leg.typ, op: op, fix: fix, out: fix.schema, noBatch: p.dep.DisableBatching}
			mi = b.add(m)
			b.mergeOfGroup[leg.group] = mi
			b.merges = append(b.merges, mergeRef{node: mi, typ: m.typ, out: m.out})
		}
		m := b.nodes[mi].(*mergeNode)
		m.ups = appendEdge(m.ups, leg.node)
	}
	// Merge outputs of one type must agree (unioned into Arbitrate).
	byType := make(map[receptor.Type]*stream.Schema)
	for _, m := range b.merges {
		if prev, ok := byType[m.typ]; ok {
			if !prev.Equal(m.out) {
				return fmt.Errorf("core: %s Merge groups produce differing schemas: %s vs %s", m.typ, prev, m.out)
			}
			continue
		}
		byType[m.typ] = m.out
	}
	return nil
}

// typeMerges tries to serve every proximity group of type t with one
// mergesNode fed by the type's legs, all of which legs must list. It
// reports nil when the type keeps one Merge node per group: the rows must
// tell their group themselves, so every leg's spatial_granule column has
// to be the processor's annotation, and no group may also hold another
// type's receptor (its legs share the group's per-group Merge node).
func (p *Processor) typeMerges(t receptor.Type, merge Stage, legs []legRef) *mergesNode {
	var groups []string
	var in *stream.Schema
	var ups []upEdge
	member := make(map[string]bool)
	for _, leg := range legs {
		if leg.typ != t {
			continue
		}
		if !leg.granuleOwned {
			return nil
		}
		if !member[leg.group] {
			member[leg.group] = true
			groups = append(groups, leg.group)
		}
		in = leg.out
		ups = appendEdge(ups, leg.node)
	}
	for _, rec := range p.dep.Receptors {
		if rec.Type() == t {
			continue
		}
		for _, g := range p.dep.Groups.Of(rec.ID()) {
			if member[g] {
				return nil
			}
		}
	}
	n := p.collapseMerges(t, merge, groups, in)
	if n != nil {
		n.ups = ups
	}
	return n
}

func (p *Processor) buildArbitrates(b *dagBuilder) error {
	for _, leg := range b.legs {
		t := leg.typ
		if _, done := p.typeSchema[t]; done {
			continue
		}
		ups, in := b.typeFeed(t)
		pl := p.pipelineFor(t)
		if pl == nil || pl.Arbitrate == nil {
			p.typeSchema[t] = in
			p.typeOrder = append(p.typeOrder, t)
			continue
		}
		op, err := pl.Arbitrate.Build(in, p.env)
		if err != nil {
			return fmt.Errorf("core: %s Arbitrate: %w", t, err)
		}
		if err := op.Open(in); err != nil {
			return fmt.Errorf("core: %s Arbitrate: %w", t, err)
		}
		arb := &arbNode{typ: t, op: op, out: op.Schema(), ups: ups}
		b.arbOf[t] = b.add(arb)
		p.typeSchema[t] = arb.out
		p.typeOrder = append(p.typeOrder, t)
	}
	return nil
}

// buildOutputs adds the terminal per-type fan-out nodes, fed by the
// type's Arbitrate when present and by its Merge nodes or legs otherwise.
func (p *Processor) buildOutputs(b *dagBuilder) {
	for _, t := range p.typeOrder {
		var ups []upEdge
		if ai, ok := b.arbOf[t]; ok {
			ups = []upEdge{{from: ai}}
		} else {
			ups, _ = b.typeFeed(t)
		}
		b.outOf[t] = b.add(&outNode{typ: t, ups: ups})
	}
}

func (p *Processor) buildVirtualize(b *dagBuilder) error {
	spec := p.dep.Virtualize
	if spec == nil {
		return nil
	}
	cat := make(map[string]*stream.Schema, len(spec.Bind))
	for name, t := range spec.Bind {
		sch, ok := p.typeSchema[t]
		if !ok {
			return fmt.Errorf("core: Virtualize binds %q to type %s, which has no receptors", name, t)
		}
		cat[name] = sch
		p.virtInputOf[t] = name
	}
	g, err := planVirtualize(spec.Query, cat, p.env)
	if err != nil {
		return fmt.Errorf("core: Virtualize: %w", err)
	}
	var ups []upEdge
	for _, t := range p.typeOrder {
		name, ok := p.virtInputOf[t]
		if !ok {
			continue
		}
		ups = append(ups, upEdge{from: b.outOf[t], port: name})
	}
	p.virt = &virtNode{g: g, ups: ups}
	b.add(p.virt)
	return nil
}

// TypeSchema reports the cleaned output schema of a receptor type.
func (p *Processor) TypeSchema(t receptor.Type) (*stream.Schema, bool) {
	s, ok := p.typeSchema[t]
	return s, ok
}

// VirtualizeSchema reports the Virtualize output schema (nil if the
// deployment has no Virtualize stage).
func (p *Processor) VirtualizeSchema() *stream.Schema {
	if p.virt == nil {
		return nil
	}
	return p.virt.g.Schema()
}

// OnType registers a sink for a type's cleaned output stream.
func (p *Processor) OnType(t receptor.Type, fn func(stream.Tuple)) {
	p.typeSinks[t] = append(p.typeSinks[t], fn)
}

// OnVirtualize registers a sink for the Virtualize output stream.
func (p *Processor) OnVirtualize(fn func(stream.Tuple)) {
	p.virtSinks = append(p.virtSinks, fn)
}

// OnEpoch registers a hook invoked at the end of every Step, after all
// stage punctuation — the place for control loops such as receptor
// actuation (see Actuator).
func (p *Processor) OnEpoch(fn func(now time.Time)) {
	p.epochSinks = append(p.epochSinks, fn)
}

// Tap registers an observer on a stage's output within a type's pipeline
// (for tracing and the paper's per-stage analyses). Point and Smooth taps
// see per-leg annotated outputs; Merge taps see per-group outputs.
func (p *Processor) Tap(t receptor.Type, stage StageKind, fn func(stream.Tuple)) {
	k := tapKey{typ: t, stage: stage}
	p.taps[k] = append(p.taps[k], fn)
}
