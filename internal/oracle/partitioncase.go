package oracle

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"esp/internal/core"
	"esp/internal/receptor"
	"esp/internal/stream"
)

// partitioned-vs-per-leg: a deployment whose stages the processor builds
// once per receptor type (the default wherever a stage's plan allows it)
// against the same deployment with one node per leg and per proximity
// group (Deployment.DisablePartitioning), byte-level on every sink and
// tap stream, with no batch fallback the per-leg
// graph does not also count. The family is built to stress what the
// collapse could get wrong: receptors listed in an order that is not
// their sorted order and interleaved across two types, receptors in
// several groups, a user GROUP BY inside Smooth, stages that drop the
// annotation columns, receptors whose polls panic into quarantine (and
// whose backlog then arrives late), windows that slide twice per epoch (so
// one punctuation releases two boundaries per leg and per group, under a
// Merge sum whose value depends on the order they arrive in), and — per
// case — possibly one stage whose plan is not partitionable next to ones
// that are.

// Stage variants of the partition family. Each list holds the eligible
// plans first and one ineligible plan last.
const (
	ppNone = iota
	ppFilter
	ppProject // drops both annotation columns
	ppSample  // ineligible: Sample
	ppKinds
)

const (
	psNone = iota
	psAvg
	psByZone // user GROUP BY
	psHaving
	psMapped // ineligible: a hand-written operator ahead of the window
	psKinds
)

const (
	pmNone = iota
	pmAvg
	pmMedianDistinct
	pmOutlier // ineligible: self-join
	pmKinds
)

var partitionSchema = stream.MustSchema(
	stream.Field{Name: "zone", Kind: stream.KindString},
	stream.Field{Name: "temp", Kind: stream.KindFloat},
)

// PartitionCase is one generated deployment of the partition family with
// its receptor traces pre-materialised.
type PartitionCase struct {
	Seed   int64
	Epoch  time.Duration
	Epochs int

	// Mote pipeline: stage variants (pp*/ps*/pm*) and whether an ArgMax
	// Arbitrate follows (only where its columns exist).
	Point, Smooth, Merge int
	Arbitrate            bool
	// Tagged reports that a second receptor type with its own (always
	// partitionable) pipeline is interleaved among the motes.
	Tagged bool
	// SubSlide gives the motes' Smooth and Merge windows a `Slide By` of
	// half the epoch.
	SubSlide bool

	// Receptors in deployment order: parallel slices.
	IDs     []string
	Types   []receptor.Type
	Groups  [][]string // one or two groups per receptor
	Traces  [][]stream.Tuple
	PanicAt []int // epoch at which the receptor's polls start panicking (0 = never)
}

const typeTagged receptor.Type = "tagged"

// GenPartitionCase deterministically builds the case for a seed.
func GenPartitionCase(seed int64) PartitionCase {
	r := rand.New(rand.NewSource(seed ^ 0x9a27))
	c := PartitionCase{
		Seed:   seed,
		Epoch:  time.Second,
		Epochs: 6 + r.Intn(4),
		Point:  r.Intn(ppKinds),
		Smooth: r.Intn(psKinds),
		Merge:  r.Intn(pmKinds),
		Tagged: r.Intn(3) == 0,
	}
	c.SubSlide = r.Intn(3) == 0
	// At most one ineligible stage per case, so most cases mix an
	// ineligible stage with eligible ones rather than disabling the lot.
	switch {
	case c.Point == ppSample && (c.Smooth == psMapped || c.Merge == pmOutlier):
		c.Point = ppFilter
	case c.Smooth == psMapped && c.Merge == pmOutlier:
		c.Smooth = psByZone
	}
	// The ArgMax Arbitrate reads the zone counts only psByZone produces.
	c.Arbitrate = c.Smooth == psByZone && c.Merge == pmNone && r.Intn(2) == 0

	nMotes := 3 + r.Intn(5)
	nGroups := 2 + r.Intn(3)
	// Group names whose sorted order is not their creation order.
	groupName := func(i int) string { return fmt.Sprintf("g%c%d", 'z'-rune(i), i) }
	for i := 0; i < nMotes; i++ {
		c.IDs = append(c.IDs, fmt.Sprintf("m%02d", (i*7+3)%17))
		c.Types = append(c.Types, receptor.TypeMote)
		gs := []string{groupName(r.Intn(nGroups))}
		if r.Intn(3) == 0 {
			if g2 := groupName(r.Intn(nGroups)); g2 != gs[0] {
				gs = append(gs, g2)
			}
		}
		c.Groups = append(c.Groups, gs)
	}
	if c.Tagged {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			at := r.Intn(len(c.IDs) + 1)
			c.IDs = append(c.IDs[:at], append([]string{fmt.Sprintf("t%d", 9-i)}, c.IDs[at:]...)...)
			c.Types = append(c.Types[:at], append([]receptor.Type{typeTagged}, c.Types[at:]...)...)
			c.Groups = append(c.Groups[:at], append([][]string{{fmt.Sprintf("tg%d", i%2)}}, c.Groups[at:]...)...)
		}
	}
	zones := []string{"north", "south", "east"}
	for range c.IDs {
		var trace []stream.Tuple
		base := 18 + r.Float64()*8
		for k := 0; k < c.Epochs; k++ {
			for j, n := 0, r.Intn(4); j < n; j++ {
				ts := epoch0.Add(time.Duration(k)*c.Epoch + time.Duration(1+r.Int63n(int64(c.Epoch))))
				trace = append(trace, stream.NewTuple(ts,
					stream.String(zones[r.Intn(len(zones))]), stream.Float(base+r.NormFloat64()*4)))
			}
		}
		sort.SliceStable(trace, func(a, b int) bool { return trace[a].Ts.Before(trace[b].Ts) })
		c.Traces = append(c.Traces, trace)
		panicAt := 0
		if r.Intn(4) == 0 {
			panicAt = 2 + r.Intn(c.Epochs-2)
		}
		c.PanicAt = append(c.PanicAt, panicAt)
	}
	return c
}

// build assembles the deployment from the recorded traces; receptors
// with a PanicAt are wrapped in a panic fault that lasts two epochs, long
// enough for the supervisor to quarantine them.
func (c *PartitionCase) build() (*core.Deployment, error) {
	dep := &core.Deployment{Epoch: c.Epoch, Groups: receptor.NewGroups()}
	members := make(map[string][]string)
	typeOf := make(map[string]receptor.Type)
	var order []string
	for i, id := range c.IDs {
		var rec receptor.Receptor = receptor.NewReplay(id, c.Types[i], partitionSchema, c.Traces[i])
		if at := c.PanicAt[i]; at > 0 {
			from := epoch0.Add(time.Duration(at)*c.Epoch - c.Epoch/2)
			rec = receptor.NewFaulty(rec, c.Seed+int64(i),
				receptor.Fault{Kind: receptor.FaultPanic, From: from, Until: from.Add(2 * c.Epoch)})
		}
		dep.Receptors = append(dep.Receptors, rec)
		for _, g := range c.Groups[i] {
			if _, ok := typeOf[g]; !ok {
				typeOf[g] = c.Types[i]
				order = append(order, g)
			}
			members[g] = append(members[g], id)
		}
	}
	for _, g := range order {
		if err := dep.Groups.Add(receptor.Group{Name: g, Type: typeOf[g], Members: members[g]}); err != nil {
			return nil, err
		}
	}

	// window renders a window clause of the given range in seconds.
	window := func(secs int) string {
		if c.SubSlide {
			return fmt.Sprintf("[Range By '%d sec' Slide By '%d ms']", secs, (c.Epoch / 2).Milliseconds())
		}
		return fmt.Sprintf("[Range By '%d sec']", secs)
	}
	pl := &core.Pipeline{Type: receptor.TypeMote}
	switch c.Point {
	case ppFilter:
		pl.Point = core.PointBelow("temp", 27)
	case ppProject:
		pl.Point = core.CQLStage{Query: "SELECT zone, temp * 1.5 AS temp FROM point_input WHERE temp > 14"}
	case ppSample:
		pl.Point = core.PointSample(2)
	}
	switch c.Smooth {
	case psAvg:
		pl.Smooth = core.SmoothAvg("temp", 2*c.Epoch)
		if c.SubSlide {
			pl.Smooth = core.CQLStage{Query: "SELECT avg(temp) AS temp FROM smooth_input " + window(2)}
		}
	case psByZone:
		pl.Smooth = core.CQLStage{Query: "SELECT zone, avg(temp) AS temp, count(*) AS n FROM smooth_input " + window(3) + " GROUP BY zone"}
	case psHaving:
		pl.Smooth = core.CQLStage{Query: "SELECT zone, max(temp) AS temp FROM smooth_input " + window(2) + " GROUP BY zone HAVING count(*) >= 2"}
	case psMapped:
		identity := core.FuncStage{Name: "identity", Fn: func(*stream.Schema, core.BuildEnv) (stream.Operator, error) {
			return &stream.MapFunc{Fn: func(t stream.Tuple) ([]stream.Tuple, error) { return []stream.Tuple{t}, nil }}, nil
		}}
		pl.Smooth = core.Compose(identity, core.SmoothAvg("temp", 2*c.Epoch))
	}
	switch c.Merge {
	case pmAvg:
		pl.Merge = core.MergeAvg("temp", c.Epoch)
		if c.SubSlide {
			pl.Merge = core.CQLStage{Query: "SELECT sum(temp) AS temp FROM merge_input " + window(2)}
		}
	case pmMedianDistinct:
		pl.Merge = core.CQLStage{Query: "SELECT median(temp) AS temp, count(distinct receptor_id) AS k FROM merge_input " + window(2)}
	case pmOutlier:
		pl.Merge = core.MergeOutlierAvg("temp", c.Epoch, 1.5)
	}
	if c.Arbitrate {
		pl.Arbitrate = core.ArbitrateMaxSum("zone", "n")
		dep.TieBreak = func(a, b stream.Tuple) bool { return fmt.Sprint(a.Values) < fmt.Sprint(b.Values) }
	}
	dep.Pipelines = map[receptor.Type]*core.Pipeline{receptor.TypeMote: pl}
	if c.Tagged {
		dep.Pipelines[typeTagged] = &core.Pipeline{
			Type:   typeTagged,
			Smooth: core.CQLStage{Query: "SELECT zone, count(*) AS n FROM smooth_input [Range By '2 sec'] GROUP BY zone"},
			Merge:  core.CQLStage{Query: "SELECT zone, sum(n) AS n FROM merge_input [Range By 'NOW'] GROUP BY zone"},
		}
	}
	return dep, nil
}

// partitionRun is what one execution of a partition case exposes: every
// observable stream rendered, the batch fallbacks counted, and the kinds
// of the collapsed nodes ("leg", "merge") the processor built.
type partitionRun struct {
	rendered  string
	fallbacks int64
	collapsed map[string]bool
}

// run executes the case, supervised on a virtual clock so quarantine is
// deterministic.
func (c *PartitionCase) run(perLeg bool) (*partitionRun, error) {
	dep, err := c.build()
	if err != nil {
		return nil, err
	}
	dep.DisablePartitioning = perLeg
	p, err := core.NewProcessor(dep)
	if err != nil {
		return nil, err
	}
	p.EnableSupervision(core.SupervisorConfig{VirtualTime: true})
	streams := make(map[string][]stream.Tuple)
	collect := func(label string) func(stream.Tuple) {
		return func(t stream.Tuple) { streams[label] = append(streams[label], t) }
	}
	for _, typ := range []receptor.Type{receptor.TypeMote, typeTagged} {
		p.OnType(typ, collect("sink/"+string(typ)))
		for _, st := range []core.StageKind{core.StagePoint, core.StageSmooth, core.StageMerge, core.StageArbitrate} {
			p.Tap(typ, st, collect(fmt.Sprintf("tap/%s/%s", typ, st)))
		}
	}
	if err := p.Run(epoch0, epoch0.Add(time.Duration(c.Epochs)*c.Epoch)); err != nil {
		return nil, err
	}
	out := &partitionRun{rendered: renderStreams(streams), collapsed: make(map[string]bool)}
	for _, ns := range p.NodeStats() {
		out.fallbacks += ns.BatchFallbacks
		if strings.HasPrefix(ns.Label, "legs ") || strings.HasPrefix(ns.Label, "merges ") {
			out.collapsed[ns.Kind] = true
		}
	}
	return out, nil
}

// CheckPartitionCase cross-checks the partitioned build against the
// per-leg build.
func CheckPartitionCase(c PartitionCase) *Divergence {
	fail := func(diff string) *Divergence {
		return &Divergence{Check: "partitioned-vs-per-leg", Seed: c.Seed, Case: c.String(), Diff: diff}
	}
	perLeg, err := c.run(true)
	if err != nil {
		return fail(fmt.Sprintf("per-leg error: %v", err))
	}
	if len(perLeg.collapsed) != 0 {
		return fail(fmt.Sprintf("DisablePartitioning still built collapsed nodes: %v", perLeg.collapsed))
	}
	part, err := c.run(false)
	if err != nil {
		return fail(fmt.Sprintf("partitioned error: %v", err))
	}
	if part.rendered != perLeg.rendered {
		return fail(fmt.Sprintf("partitioned vs per-leg: %s", firstDiff(part.rendered, perLeg.rendered)))
	}
	if part.fallbacks > perLeg.fallbacks {
		return fail(fmt.Sprintf("partitioned counted %d batch fallbacks, per-leg %d", part.fallbacks, perLeg.fallbacks))
	}
	return nil
}

// String renders the case for divergence reports.
func (c PartitionCase) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed=%d epoch=%v epochs=%d point=%d smooth=%d merge=%d arbitrate=%v tagged=%v subslide=%v\n",
		c.Seed, c.Epoch, c.Epochs, c.Point, c.Smooth, c.Merge, c.Arbitrate, c.Tagged, c.SubSlide)
	for i, id := range c.IDs {
		fmt.Fprintf(&sb, "receptor %s type=%s groups=%v panicAt=%d trace:\n", id, c.Types[i], c.Groups[i], c.PanicAt[i])
		for _, t := range c.Traces[i] {
			fmt.Fprintf(&sb, "  %d|%v\n", t.Ts.UnixNano(), t.Values)
		}
	}
	return sb.String()
}
