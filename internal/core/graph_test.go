package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/sim"
	"esp/internal/stream"
)

// exampleCase builds one example deployment for the whole-graph tests.
// Each call must construct a fresh, deterministic deployment (the
// simulators are seeded) so two runs see identical receptor streams.
type exampleCase struct {
	name  string
	epoch time.Duration
	dur   time.Duration
	build func(t *testing.T) *Deployment
}

func shelfDeployment(t *testing.T) *Deployment {
	t.Helper()
	cfg := sim.DefaultShelfConfig()
	sc, err := sim.NewShelfScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]receptor.Receptor, len(sc.Readers))
	for i, r := range sc.Readers {
		recs[i] = r
	}
	return &Deployment{
		Epoch:     cfg.PollPeriod,
		Receptors: recs,
		Groups:    sc.Groups,
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {
				Type:      receptor.TypeRFID,
				Point:     PointChecksum("checksum_ok"),
				Smooth:    SmoothTagCount(5 * time.Second),
				Arbitrate: ArbitrateMaxSum("tag_id", "n"),
			},
		},
		TieBreak: func(a, b stream.Tuple) bool {
			return a.Values[0] == stream.String("shelf1")
		},
	}
}

func redwoodDeployment(t *testing.T) *Deployment {
	t.Helper()
	cfg := sim.DefaultRedwoodConfig()
	cfg.Motes = 8
	sc, err := sim.NewRedwoodScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]receptor.Receptor, len(sc.Motes))
	for i, m := range sc.Motes {
		recs[i] = m
	}
	return &Deployment{
		Epoch:     cfg.Epoch,
		Receptors: recs,
		Groups:    sc.Groups,
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeMote: {
				Type:   receptor.TypeMote,
				Smooth: SmoothAvg("temp", 30*time.Minute),
				Merge:  MergeAvg("temp", cfg.Epoch),
			},
		},
	}
}

func homeDeployment(t *testing.T) *Deployment {
	t.Helper()
	cfg := sim.DefaultHomeConfig()
	sc, err := sim.NewHomeScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []receptor.Receptor
	for _, r := range sc.Readers {
		recs = append(recs, r)
	}
	for _, m := range sc.Motes {
		recs = append(recs, m)
	}
	for _, d := range sc.Detectors {
		recs = append(recs, d)
	}
	expectedTags := stream.MustTable(
		stream.MustSchema(stream.Field{Name: "expected_tag", Kind: stream.KindString}),
		[]stream.Tuple{stream.NewTuple(time.Time{}, stream.String(sim.BadgeTagID))},
	)
	granule := 10 * time.Second
	return &Deployment{
		Epoch:     cfg.Epoch,
		Receptors: recs,
		Groups:    sc.Groups,
		Tables:    map[string]*stream.Table{"expected_tags": expectedTags},
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {
				Type:   receptor.TypeRFID,
				Point:  Compose(PointChecksum("checksum_ok"), PointExpectedTags("tag_id", "expected_tags", "expected_tag")),
				Smooth: SmoothTagCount(granule),
				Merge:  MergeUnion(),
			},
			receptor.TypeMote: {
				Type:   receptor.TypeMote,
				Smooth: SmoothAvg("noise", granule),
				Merge:  MergeAvg("noise", cfg.Epoch),
			},
			receptor.TypeMotion: {
				Type:   receptor.TypeMotion,
				Smooth: SmoothEvents(granule, 1),
				Merge:  MergeVote(cfg.Epoch, 2),
			},
		},
		Virtualize: &VirtualizeSpec{
			Query: PersonDetectorQuery(525, 2),
			Bind: map[string]receptor.Type{
				"sensors_input": receptor.TypeMote,
				"rfid_input":    receptor.TypeRFID,
				"motion_input":  receptor.TypeMotion,
			},
		},
	}
}

func exampleCases() []exampleCase {
	return []exampleCase{
		{name: "rfidshelf", epoch: 200 * time.Millisecond, dur: 60 * time.Second, build: shelfDeployment},
		{name: "redwood", epoch: 5 * time.Minute, dur: 6 * time.Hour, build: redwoodDeployment},
		{name: "digitalhome", epoch: time.Second, dur: 120 * time.Second, build: homeDeployment},
	}
}

// exampleOutput is everything one run emitted: the sink stream (per-type
// sinks plus Virtualize, in emission order) and each tap stream keyed by
// type/stage.
type exampleOutput struct {
	sinks string
	taps  map[string]string
	// nodes is the processor's node census after the run.
	nodes []NodeStats
}

// runExampleCase executes one deployment and records every observable
// output.
func runExampleCase(t *testing.T, c exampleCase) exampleOutput {
	t.Helper()
	dep := c.build(t)
	p, err := NewProcessor(dep)
	if err != nil {
		t.Fatal(err)
	}
	var sinks strings.Builder
	tapStreams := make(map[string]*strings.Builder)
	record := func(sb *strings.Builder, label string) func(stream.Tuple) {
		return func(tu stream.Tuple) {
			fmt.Fprintf(sb, "%s|%d|%v\n", label, tu.Ts.UnixNano(), tu.Values)
		}
	}
	tapRecord := func(label string) func(stream.Tuple) {
		sb := &strings.Builder{}
		tapStreams[label] = sb
		return record(sb, label)
	}
	types := make(map[receptor.Type]bool)
	for _, rec := range dep.Receptors {
		if types[rec.Type()] {
			continue
		}
		types[rec.Type()] = true
		typ := rec.Type()
		p.OnType(typ, record(&sinks, "out/"+string(typ)))
		for _, stage := range []StageKind{StagePoint, StageSmooth, StageMerge, StageArbitrate} {
			p.Tap(typ, stage, tapRecord(fmt.Sprintf("tap/%s/%s", typ, stage)))
		}
	}
	p.OnVirtualize(record(&sinks, "virtualize"))
	start := time.Unix(0, 0).UTC()
	if err := p.Run(start, start.Add(c.dur)); err != nil {
		t.Fatal(err)
	}
	out := exampleOutput{sinks: sinks.String(), taps: make(map[string]string, len(tapStreams)), nodes: p.NodeStats()}
	for label, sb := range tapStreams {
		out.taps[label] = sb.String()
	}
	return out
}

// TestNodeStats checks the instrumentation hook: every node reports its
// label, kind, and advance count, and the leg→merge→output chain
// moves tuples.
func TestNodeStats(t *testing.T) {
	dep := redwoodDeployment(t)
	p, err := NewProcessor(dep)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(0, 0).UTC()
	epochs := 24
	if err := p.Run(start, start.Add(time.Duration(epochs)*dep.Epoch)); err != nil {
		t.Fatal(err)
	}
	stats := p.NodeStats()
	if len(stats) == 0 {
		t.Fatal("no node stats")
	}
	kinds := make(map[string]int)
	var moved int64
	for _, st := range stats {
		kinds[st.Kind]++
		if st.Label == "" {
			t.Fatalf("node with empty label: %+v", st)
		}
		if st.Advances != int64(epochs) {
			t.Fatalf("node %s advanced %d times, want %d", st.Label, st.Advances, epochs)
		}
		moved += st.TuplesOut
	}
	// The redwood stages are partitionable: the eight legs are one node.
	if kinds["leg"] != 1 || kinds["merge"] == 0 || kinds["output"] != 1 {
		t.Fatalf("unexpected node census: %v", kinds)
	}
	if moved == 0 {
		t.Fatal("no tuples flowed through the graph")
	}
}

// firstDiff locates the first differing line of two outputs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length: %d vs %d lines", len(al), len(bl))
}
