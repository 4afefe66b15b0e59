package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"esp/internal/core"
	"esp/internal/receptor"
	"esp/internal/sim"
	"esp/internal/stream"
)

// Deployment archetypes. The kind is derived from the seed so a
// Divergence's seed alone rebuilds the identical case.
const (
	// depMote is the redwood-style family: motes with optional
	// Point/Smooth/Merge stages. The only kind with a full reference
	// interpretation (refpipeline.go).
	depMote = iota
	// depShelf is the RFID-shelf family: readers with checksum Point,
	// tag-count Smooth and optionally the >= ALL Arbitrate rewrite.
	depShelf
	// depVirt is the mote family plus a windowed Virtualize query.
	depVirt
	depKinds
)

// DeploymentCase is one generated end-to-end deployment with its receptor
// traces pre-materialised: Build always constructs replay receptors over
// the same recorded tuples, so repeated runs (in different execution
// modes, or with hand-built stage variants) see identical inputs.
type DeploymentCase struct {
	Seed   int64
	Kind   int
	Epoch  time.Duration
	Epochs int

	// Mote-family pipeline knobs (zero value = stage skipped).
	PointLimit float64
	SmoothG    time.Duration
	MergeKind  int // 0 none, 1 avg, 2 median
	MergeG     time.Duration
	VirtG      time.Duration // depVirt only

	// Shelf-family pipeline knobs.
	TagG      time.Duration
	Arbitrate bool

	// Receptors: parallel slices in receptor order.
	IDs     []string
	GroupOf []string
	Traces  [][]stream.Tuple
}

func (c *DeploymentCase) typ() receptor.Type {
	if c.Kind == depShelf {
		return receptor.TypeRFID
	}
	return receptor.TypeMote
}

// groupOrder lists distinct groups in first-appearance (receptor) order —
// the order the processor constructs Merge nodes in.
func (c *DeploymentCase) groupOrder() []string {
	seen := make(map[string]bool)
	var order []string
	for _, g := range c.GroupOf {
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	return order
}

// GenDeploymentCase deterministically builds the deployment for a seed:
// the kind cycles with seed%3, everything else (device count, grouping,
// stage selection, window widths, and the full polled traces) comes from
// the seed's RNG.
func GenDeploymentCase(seed int64) DeploymentCase {
	r := rand.New(rand.NewSource(seed))
	c := DeploymentCase{
		Seed:   seed,
		Kind:   int(((seed % depKinds) + depKinds) % depKinds),
		Epoch:  time.Second,
		Epochs: 5 + r.Intn(4),
	}
	if c.Kind == depShelf {
		genShelfCase(&c, r)
	} else {
		genMoteCase(&c, r)
	}
	return c
}

func genMoteCase(c *DeploymentCase, r *rand.Rand) {
	n := 2 + r.Intn(4)
	ng := 1 + r.Intn(3)
	if ng > n {
		ng = n
	}
	if r.Intn(2) == 0 {
		c.PointLimit = 28
	}
	c.SmoothG = []time.Duration{0, c.Epoch, 2 * c.Epoch, 4 * c.Epoch}[r.Intn(4)]
	c.MergeKind = r.Intn(3)
	c.MergeG = []time.Duration{c.Epoch, 2 * c.Epoch}[r.Intn(2)]
	if c.Kind == depVirt {
		c.VirtG = []time.Duration{c.Epoch, 2 * c.Epoch}[r.Intn(2)]
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%02d", i)
		base := 20 + r.Float64()*10
		amp := r.Float64() * 6
		phase := r.Float64() * 2 * math.Pi
		m := sim.NewMote(c.Seed, id, 0.5+0.5*r.Float64(), sim.SensorModel{
			Name: "temp",
			Truth: func(now time.Time) float64 {
				return base + amp*math.Sin(phase+now.Sub(epoch0).Seconds()/7)
			},
			Bias:     r.Float64()*2 - 1,
			NoiseStd: 2,
		})
		c.IDs = append(c.IDs, id)
		c.GroupOf = append(c.GroupOf, fmt.Sprintf("g%d", i%ng))
		c.Traces = append(c.Traces, recordTrace(m, c.Epoch, c.Epochs))
	}
}

func genShelfCase(c *DeploymentCase, r *rand.Rand) {
	n := 2 + r.Intn(2)
	c.TagG = []time.Duration{c.Epoch, 2 * c.Epoch, 4 * c.Epoch}[r.Intn(3)]
	c.Arbitrate = r.Intn(2) == 0
	// One tag sits in every reader's view so Arbitrate has a real
	// contention to resolve; the rest are private per shelf.
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("reader%d", i)
		view := []sim.TagInView{{ID: "shared-t0", Detect: 0.3 + 0.5*r.Float64()}}
		for j, nt := 0, 1+r.Intn(3); j < nt; j++ {
			view = append(view, sim.TagInView{
				ID:     fmt.Sprintf("s%d-t%d", i, j),
				Detect: 0.4 + 0.6*r.Float64(),
			})
		}
		rd := sim.NewRFIDReader(c.Seed, id, func(time.Time) []sim.TagInView { return view })
		rd.ChecksumFailP = 0.15
		rd.GhostP = 0.1
		c.IDs = append(c.IDs, id)
		c.GroupOf = append(c.GroupOf, fmt.Sprintf("shelf%d", i))
		c.Traces = append(c.Traces, recordTrace(rd, c.Epoch, c.Epochs))
	}
}

// recordTrace polls a simulated device once per epoch and records the
// delivered tuples — the deterministic input every execution path replays.
func recordTrace(rec receptor.Receptor, epoch time.Duration, epochs int) []stream.Tuple {
	var trace []stream.Tuple
	for k := 1; k <= epochs; k++ {
		// Poll results are borrowed until the next Poll: keep copies.
		for _, tu := range rec.Poll(epoch0.Add(time.Duration(k) * epoch)) {
			trace = append(trace, tu.Clone())
		}
	}
	return trace
}

// build assembles the deployment from the recorded traces. hand selects
// the hand-built operator variants of the CQL toolkit stages (the
// cql-vs-handbuilt cross-check); both variants see byte-identical inputs.
func (c *DeploymentCase) build(hand bool) (*core.Deployment, error) {
	typ := c.typ()
	var schema *stream.Schema
	if c.Kind == depShelf {
		schema = sim.RFIDSchema
	} else {
		schema = sim.MoteSchemaFor("temp")
	}
	dep := &core.Deployment{Epoch: c.Epoch, Groups: receptor.NewGroups()}
	members := make(map[string][]string)
	for i, id := range c.IDs {
		dep.Receptors = append(dep.Receptors, receptor.NewReplay(id, typ, schema, c.Traces[i]))
		members[c.GroupOf[i]] = append(members[c.GroupOf[i]], id)
	}
	for _, g := range c.groupOrder() {
		if err := dep.Groups.Add(receptor.Group{Name: g, Type: typ, Members: members[g]}); err != nil {
			return nil, err
		}
	}

	pl := &core.Pipeline{Type: typ}
	used := false
	if c.Kind == depShelf {
		pl.Point = core.PointChecksum("checksum_ok")
		if hand {
			pl.Smooth = handTagCount(c.TagG)
		} else {
			pl.Smooth = core.SmoothTagCount(c.TagG)
		}
		if c.Arbitrate {
			pl.Arbitrate = core.ArbitrateMaxSum("tag_id", "n")
		}
		used = true
		dep.TieBreak = func(a, b stream.Tuple) bool {
			return fmt.Sprint(a.Values) < fmt.Sprint(b.Values)
		}
	} else {
		if c.PointLimit != 0 {
			if hand {
				pl.Point = handPointBelow("temp", c.PointLimit)
			} else {
				pl.Point = core.PointBelow("temp", c.PointLimit)
			}
			used = true
		}
		if c.SmoothG > 0 {
			if hand {
				pl.Smooth = handWindowAgg("smooth-avg", stream.AggAvg, "temp", c.SmoothG)
			} else {
				pl.Smooth = core.SmoothAvg("temp", c.SmoothG)
			}
			used = true
		}
		switch c.MergeKind {
		case 1:
			if hand {
				pl.Merge = handWindowAgg("merge-avg", stream.AggAvg, "temp", c.MergeG)
			} else {
				pl.Merge = core.MergeAvg("temp", c.MergeG)
			}
			used = true
		case 2:
			if hand {
				pl.Merge = handWindowAgg("merge-median", stream.AggMedian, "temp", c.MergeG)
			} else {
				pl.Merge = core.MergeMedian("temp", c.MergeG)
			}
			used = true
		}
	}
	if used {
		dep.Pipelines = map[receptor.Type]*core.Pipeline{typ: pl}
	}
	if c.Kind == depVirt {
		dep.Virtualize = &core.VirtualizeSpec{
			Query: fmt.Sprintf("SELECT avg(temp) AS vtemp FROM sensors_input [Range By '%d ms']",
				c.VirtG/time.Millisecond),
			Bind: map[string]receptor.Type{"sensors_input": typ},
		}
	}
	return dep, nil
}

// handPointBelow is the hand-built twin of core.PointBelow: a bare filter
// operator instead of a compiled WHERE clause.
func handPointBelow(field string, limit float64) core.Stage {
	return core.FuncStage{
		Name: "hand-point-below",
		Fn: func(in *stream.Schema, env core.BuildEnv) (stream.Operator, error) {
			return stream.NewFilter(stream.NewBinary(stream.OpLt,
				stream.NewCol(field), stream.NewConst(stream.Float(limit)))), nil
		},
	}
}

// handWindowAgg is the hand-built twin of the single-aggregate windowed
// toolkit queries (SmoothAvg, MergeAvg, MergeMedian): a WindowAgg
// constructed directly instead of planned from CQL.
func handWindowAgg(name string, fn stream.AggFunc, field string, g time.Duration) core.Stage {
	return core.FuncStage{
		Name: "hand-" + name,
		Fn: func(in *stream.Schema, env core.BuildEnv) (stream.Operator, error) {
			return &stream.WindowAgg{
				Aggs:  []stream.AggSpec{{Name: field, Func: fn, Arg: stream.NewCol(field)}},
				Range: g,
				Slide: env.Epoch,
			}, nil
		},
	}
}

// handTagCount is the hand-built twin of core.SmoothTagCount.
func handTagCount(g time.Duration) core.Stage {
	return core.FuncStage{
		Name: "hand-tag-count",
		Fn: func(in *stream.Schema, env core.BuildEnv) (stream.Operator, error) {
			return &stream.WindowAgg{
				GroupBy: []stream.NamedExpr{{Name: "tag_id", Expr: stream.NewCol("tag_id")}},
				Aggs:    []stream.AggSpec{{Name: "n", Func: stream.AggCount}},
				Range:   g,
				Slide:   env.Epoch,
			}, nil
		},
	}
}

// depOutput captures everything externally observable from one run: the
// type sink stream (structurally, for reference comparison) and a byte
// rendering of every labelled stream — sinks, per-stage taps, Virtualize.
type depOutput struct {
	sink     []stream.Tuple
	rendered string
}

// runWith builds and executes the case and collects its observable
// output.
func (c *DeploymentCase) runWith(hand bool) (*depOutput, error) {
	dep, err := c.build(hand)
	if err != nil {
		return nil, err
	}
	return c.runDep(dep)
}

// runDep executes an already-built deployment (possibly with wrapped
// receptors — the chaos check injects fault wrappers) and collects its
// observable output.
func (c *DeploymentCase) runDep(dep *core.Deployment) (*depOutput, error) {
	p, err := core.NewProcessor(dep)
	if err != nil {
		return nil, err
	}
	streams := make(map[string][]stream.Tuple)
	collect := func(label string) func(stream.Tuple) {
		return func(t stream.Tuple) { streams[label] = append(streams[label], t) }
	}
	typ := c.typ()
	sinkLabel := "sink/" + string(typ)
	p.OnType(typ, collect(sinkLabel))
	for _, st := range []core.StageKind{core.StagePoint, core.StageSmooth, core.StageMerge, core.StageArbitrate} {
		p.Tap(typ, st, collect(fmt.Sprintf("tap/%s/%s", typ, st)))
	}
	if c.Kind == depVirt {
		p.OnVirtualize(collect("virtualize"))
	}
	if err := p.Run(epoch0, epoch0.Add(time.Duration(c.Epochs)*c.Epoch)); err != nil {
		return nil, err
	}
	return &depOutput{sink: streams[sinkLabel], rendered: renderStreams(streams)}, nil
}

// renderStreams renders labelled streams in label order — the byte-level
// comparison form of everything a run exposed.
func renderStreams(streams map[string][]stream.Tuple) string {
	labels := make([]string, 0, len(streams))
	for l := range streams {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sb strings.Builder
	for _, l := range labels {
		fmt.Fprintf(&sb, "== %s ==\n%s", l, renderTuples(streams[l]))
	}
	return sb.String()
}

// CheckDeploymentCase cross-checks one deployment of the mote family:
// its sink stream against the straight-line five-stage reference within
// float tolerance. Other families have no reference and pass.
func CheckDeploymentCase(c DeploymentCase) *Divergence {
	if c.Kind == depMote {
		if d := checkPipelineVsRef(c); d != nil {
			return minimizeDeployment(c, d, checkPipelineVsRef)
		}
	}
	return nil
}

func checkPipelineVsRef(c DeploymentCase) *Divergence {
	got, err := c.runWith(false)
	if err != nil {
		return &Divergence{Check: "pipeline-vs-reference", Seed: c.Seed, Case: c.String(),
			Diff: fmt.Sprintf("error: %v", err)}
	}
	ref := refMotePipeline(c)
	if diff := compareToRef(got.sink, ref); diff != "" {
		return &Divergence{Check: "pipeline-vs-reference", Seed: c.Seed, Case: c.String(), Diff: diff}
	}
	return nil
}

// CheckPlanCase runs the CQL-compiled and hand-built variants of the same
// deployment over the same traces and demands byte-identical output. Only
// kinds whose toolkit stages have hand twins participate (shelf Arbitrate
// has none — its >= ALL rewrite exists only in the planner).
func CheckPlanCase(c DeploymentCase) *Divergence {
	check := func(t DeploymentCase) *Divergence {
		fail := func(diff string) *Divergence {
			return &Divergence{Check: "cql-vs-handbuilt", Seed: t.Seed, Case: t.String(), Diff: diff}
		}
		planned, err := t.runWith(false)
		if err != nil {
			return fail(fmt.Sprintf("cql error: %v", err))
		}
		handmade, err := t.runWith(true)
		if err != nil {
			return fail(fmt.Sprintf("hand error: %v", err))
		}
		if planned.rendered != handmade.rendered {
			return fail(firstDiff(planned.rendered, handmade.rendered))
		}
		return nil
	}
	if d := check(c); d != nil {
		return minimizeDeployment(c, d, check)
	}
	return nil
}

// runToggled builds the CQL-compiled variant of the case, applies adjust
// to the built deployment (the execution-mode toggles: DisableBatching,
// DisableOptimizer), and runs it.
func (c *DeploymentCase) runToggled(adjust func(*core.Deployment)) (*depOutput, error) {
	dep, err := c.build(false)
	if err != nil {
		return nil, err
	}
	adjust(dep)
	return c.runDep(dep)
}

// CheckBatchCase runs the same deployment with columnar batch exchange on
// (the default) and off (Deployment.DisableBatching) and demands
// byte-identical output on every observable stream: batching is an
// execution-layer representation change and must never alter results.
func CheckBatchCase(c DeploymentCase) *Divergence {
	check := func(t DeploymentCase) *Divergence {
		fail := func(diff string) *Divergence {
			return &Divergence{Check: "batched-vs-tuple", Seed: t.Seed, Case: t.String(), Diff: diff}
		}
		batched, err := t.runWith(false)
		if err != nil {
			return fail(fmt.Sprintf("batched error: %v", err))
		}
		tuple, err := t.runToggled(func(d *core.Deployment) { d.DisableBatching = true })
		if err != nil {
			return fail(fmt.Sprintf("tuple error: %v", err))
		}
		if batched.rendered != tuple.rendered {
			return fail(firstDiff(batched.rendered, tuple.rendered))
		}
		return nil
	}
	if d := check(c); d != nil {
		return minimizeDeployment(c, d, check)
	}
	return nil
}

// CheckOptCase runs the same deployment with the CQL plan-rewrite pass on
// (the default) and off (Deployment.DisableOptimizer) and demands
// byte-identical output: every rewrite in the catalog (predicate
// pushdown, projection pruning, operator fusion) must preserve semantics
// exactly, including fold order.
func CheckOptCase(c DeploymentCase) *Divergence {
	check := func(t DeploymentCase) *Divergence {
		fail := func(diff string) *Divergence {
			return &Divergence{Check: "optimized-vs-unoptimized", Seed: t.Seed, Case: t.String(), Diff: diff}
		}
		optimized, err := t.runWith(false)
		if err != nil {
			return fail(fmt.Sprintf("optimized error: %v", err))
		}
		plain, err := t.runToggled(func(d *core.Deployment) { d.DisableOptimizer = true })
		if err != nil {
			return fail(fmt.Sprintf("unoptimized error: %v", err))
		}
		if optimized.rendered != plain.rendered {
			return fail(firstDiff(optimized.rendered, plain.rendered))
		}
		return nil
	}
	if d := check(c); d != nil {
		return minimizeDeployment(c, d, check)
	}
	return nil
}

// GenPlanCase builds a deployment for the cql-vs-handbuilt check: the
// mote or shelf family with every hand-twinned stage forced on.
func GenPlanCase(seed int64) DeploymentCase {
	c := GenDeploymentCase(seed)
	switch c.Kind {
	case depShelf:
		c.Arbitrate = false
	case depVirt:
		c.Kind = depMote
		c.VirtG = 0
		fallthrough
	default:
		c.PointLimit = 28
		if c.SmoothG == 0 {
			c.SmoothG = 2 * c.Epoch
		}
		if c.MergeKind == 0 {
			c.MergeKind = 1 + int(seed%2)
		}
	}
	return c
}

// minimizeDeployment greedily drops trace tuples while the check keeps
// failing, and returns the divergence of the smallest still-failing case.
func minimizeDeployment(c DeploymentCase, orig *Divergence, check func(DeploymentCase) *Divergence) *Divergence {
	best := orig
	for changed := true; changed; {
		changed = false
		for ri := range c.Traces {
			for ti := 0; ti < len(c.Traces[ri]); ti++ {
				t := c
				t.Traces = append([][]stream.Tuple(nil), c.Traces...)
				t.Traces[ri] = append(append([]stream.Tuple(nil), c.Traces[ri][:ti]...), c.Traces[ri][ti+1:]...)
				if d := check(t); d != nil {
					c, best, changed = t, d, true
					ti--
				}
			}
		}
	}
	return best
}

// String renders the case for divergence reports: the configuration plus
// the full recorded traces.
func (c DeploymentCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d kind=%d epoch=%v epochs=%d\n", c.Seed, c.Kind, c.Epoch, c.Epochs)
	if c.Kind == depShelf {
		fmt.Fprintf(&sb, "shelf: tagG=%v arbitrate=%v\n", c.TagG, c.Arbitrate)
	} else {
		fmt.Fprintf(&sb, "mote: pointLimit=%v smoothG=%v mergeKind=%d mergeG=%v virtG=%v\n",
			c.PointLimit, c.SmoothG, c.MergeKind, c.MergeG, c.VirtG)
	}
	for i, id := range c.IDs {
		fmt.Fprintf(&sb, "receptor %s group=%s trace:\n", id, c.GroupOf[i])
		for _, t := range c.Traces[i] {
			fmt.Fprintf(&sb, "  %d|%v\n", t.Ts.UnixNano(), t.Values)
		}
	}
	return sb.String()
}
