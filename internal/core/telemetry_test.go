package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
	"esp/internal/telemetry"
)

// rfidTelemetryProcessor builds the one-receptor RFID deployment used by
// the stats tests (Point drops the corrupt read, Smooth counts tags).
func rfidTelemetryProcessor(t *testing.T) *Processor {
	t.Helper()
	rec := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw,
		queue: []stream.Tuple{
			rfidRead(0.2, "A", true),
			rfidRead(0.4, "B", false), // dropped by Point
		}}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{rec},
		Groups:    singleGroup("shelf0", receptor.TypeRFID, "r0"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {
				Type:   receptor.TypeRFID,
				Point:  PointChecksum("checksum_ok"),
				Smooth: SmoothTagCount(time.Second),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTelemetryUnifiedSnapshot(t *testing.T) {
	p := rfidTelemetryProcessor(t)
	p.EnableTelemetry()
	if err := p.Run(at(0), at(1)); err != nil {
		t.Fatal(err)
	}
	s := p.Telemetry().Snapshot()

	// Per-node counters and advance-latency histograms.
	if got := s.Counters["node.legs rfid.tuples_in"]; got != 2 {
		t.Errorf("leg tuples_in = %d, want 2", got)
	}
	if got := s.Counters["node.output rfid.tuples_in"]; got != 1 {
		t.Errorf("output tuples_in = %d, want 1", got)
	}
	h, ok := s.Histograms["node.legs rfid.advance_ns"]
	if !ok || h.Count != 1 {
		t.Errorf("leg advance histogram = %+v ok=%v, want 1 observation", h, ok)
	}

	// NodeStats is a view over the same registry.
	var legStats *NodeStats
	for i, ns := range p.NodeStats() {
		if ns.Label == "legs rfid" {
			legStats = &p.NodeStats()[i]
		}
	}
	if legStats == nil || legStats.TuplesIn != 2 || legStats.Advances != 1 {
		t.Errorf("NodeStats leg = %+v, want TuplesIn=2 Advances=1", legStats)
	}
}

// TestEnableStatsCountsStages checks the per-stage accounting that
// EnableTelemetry switches on: polled input plus the tuples each stage
// releases, readable both as counters and in the registry's rendering.
func TestEnableStatsCountsStages(t *testing.T) {
	p := rfidTelemetryProcessor(t)
	p.EnableTelemetry()
	if err := p.Run(at(0), at(1)); err != nil {
		t.Fatal(err)
	}
	s := p.Telemetry().Snapshot()
	if got := s.Counters["poll.rfid.tuples"]; got != 2 {
		t.Errorf("polled = %d, want 2", got)
	}
	if got := s.Counters["stage.rfid/Point.tuples"]; got != 1 {
		t.Errorf("Point stage = %d, want 1 (corrupt read dropped)", got)
	}
	if got := s.Counters["stage.rfid/Smooth.tuples"]; got != 1 {
		t.Errorf("Smooth stage = %d, want 1", got)
	}
	if got := s.Counters["stage.rfid/Arbitrate.tuples"]; got != 1 { // type output tap
		t.Errorf("type output = %d, want 1", got)
	}
	if r := p.Telemetry().String(); !strings.Contains(r, `"stage.rfid/Point.tuples":1`) {
		t.Errorf("registry rendering = %q", r)
	}
}

func TestChannelDroppedSurfacedInSnapshot(t *testing.T) {
	sch := stream.MustSchema(stream.Field{Name: "v", Kind: stream.KindFloat})
	ch := receptor.NewChannel("edge0", receptor.TypeMote, sch)
	ch.SetCap(2)
	for i := 0; i < 5; i++ { // 3 evicted
		ch.Publish(stream.NewTuple(at(float64(i)*0.1), stream.Float(float64(i))))
	}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{ch},
		Groups:    singleGroup("room", receptor.TypeMote, "edge0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Telemetry().Snapshot()
	if got := s.Gauges["receptor.edge0.channel_dropped"]; got != 3 {
		t.Errorf("channel_dropped gauge = %d, want 3", got)
	}
	if got := s.Gauges["receptor.edge0.channel_pending"]; got != 2 {
		t.Errorf("channel_pending gauge = %d, want 2", got)
	}
	if err := p.Step(at(1)); err != nil {
		t.Fatal(err)
	}
	if got := p.Telemetry().Snapshot().Gauges["receptor.edge0.channel_pending"]; got != 0 {
		t.Errorf("channel_pending after drain = %d, want 0", got)
	}
}

func TestLineageFiveSpansInOrder(t *testing.T) {
	p := rfidTelemetryProcessor(t)
	lin := p.EnableLineage(1, 42) // sample every reading
	if err := p.Run(at(0), at(1)); err != nil {
		t.Fatal(err)
	}
	traces := lin.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2 (sampleN=1, two readings)", len(traces))
	}
	wantStages := []string{"Point", "Smooth", "Merge", "Arbitrate", "Virtualize"}
	for _, tr := range traces {
		if tr.Receptor != "r0" || tr.Type != "rfid" {
			t.Errorf("trace identity = %s/%s", tr.Receptor, tr.Type)
		}
		if len(tr.Spans) != len(wantStages) {
			t.Fatalf("trace has %d spans, want 5: %+v", len(tr.Spans), tr.Spans)
		}
		for i, span := range tr.Spans {
			if span.Stage != wantStages[i] {
				t.Errorf("span %d = %q, want %q", i, span.Stage, wantStages[i])
			}
			if !span.Epoch.Equal(at(1)) {
				t.Errorf("span %d epoch = %v, want %v", i, span.Epoch, at(1))
			}
		}
	}
	// Both readings share the epoch cohort: 2 polled, Point released 1.
	point := traces[0].Spans[0]
	if point.In != 2 || point.Out != 1 || point.Decision != "merge" {
		t.Errorf("Point span = %+v, want In=2 Out=1 merge", point)
	}
	// Merge and Virtualize are not configured here: pass-through spans.
	if d := traces[0].Spans[2].Decision; d != "pass-through" {
		t.Errorf("Merge span decision = %q, want pass-through", d)
	}
	if d := traces[0].Spans[4].Decision; d != "pass-through" {
		t.Errorf("Virtualize span decision = %q, want pass-through", d)
	}

	var buf bytes.Buffer
	if err := lin.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []telemetry.Trace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("lineage dump is not valid JSON: %v", err)
	}
	if len(decoded) != 2 || decoded[0].Spans[4].Stage != "Virtualize" {
		t.Fatalf("decoded dump = %+v", decoded)
	}
}

func TestLineageVirtualizeSpan(t *testing.T) {
	// Pass-through deployment with a bound Virtualize query: the fifth
	// span must reflect the virtualize output for bound types.
	moteSchema := stream.MustSchema(
		stream.Field{Name: "mote_id", Kind: stream.KindString},
		stream.Field{Name: "noise", Kind: stream.KindFloat},
	)
	x10Schema := stream.MustSchema(
		stream.Field{Name: "detector_id", Kind: stream.KindString},
		stream.Field{Name: "value", Kind: stream.KindString},
	)
	mote := &fakeReceptor{id: "m1", typ: receptor.TypeMote, schema: moteSchema, queue: []stream.Tuple{
		stream.NewTuple(at(0.2), stream.String("m1"), stream.Float(800)),
	}}
	x10 := &fakeReceptor{id: "x1", typ: receptor.TypeMotion, schema: x10Schema, queue: []stream.Tuple{
		stream.NewTuple(at(0.4), stream.String("x1"), stream.String("ON")),
	}}
	rfid := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw}
	groups := receptor.NewGroups()
	groups.MustAdd(receptor.Group{Name: "sound", Type: receptor.TypeMote, Members: []string{"m1"}})
	groups.MustAdd(receptor.Group{Name: "motion", Type: receptor.TypeMotion, Members: []string{"x1"}})
	groups.MustAdd(receptor.Group{Name: "badge", Type: receptor.TypeRFID, Members: []string{"r0"}})
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{mote, x10, rfid},
		Groups:    groups,
		Virtualize: &VirtualizeSpec{
			Query: PersonDetectorQuery(525, 2),
			Bind: map[string]receptor.Type{
				"sensors_input": receptor.TypeMote,
				"rfid_input":    receptor.TypeRFID,
				"motion_input":  receptor.TypeMotion,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lin := p.EnableLineage(1, 7)
	if err := p.Run(at(0), at(1)); err != nil {
		t.Fatal(err)
	}
	traces := lin.Traces()
	if len(traces) != 2 { // one mote reading + one motion reading
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	for _, tr := range traces {
		virt := tr.Spans[4]
		if virt.Stage != "Virtualize" {
			t.Fatalf("span 4 = %q", virt.Stage)
		}
		// Loud noise + motion = 2 votes: the detector fires this epoch.
		if virt.Out != 1 {
			t.Errorf("%s virtualize span out = %d, want 1 detection", tr.Type, virt.Out)
		}
		if virt.Decision == "pass-through" {
			t.Errorf("%s virtualize span decision = pass-through, want configured", tr.Type)
		}
	}
}

// TestTelemetryDisabledZeroAlloc pins the disabled-path cost: the stage
// accounting a node event triggers must be a single atomic load and no
// allocations when telemetry is off.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	p := rfidTelemetryProcessor(t)
	if p.Telemetry().Enabled() {
		t.Fatal("telemetry must start disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.countStage(receptor.TypeRFID, StagePoint, 1)
		p.countStage("", StageVirtualize, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled countStage allocates %v per run, want 0", allocs)
	}
	if got := p.Telemetry().Snapshot().Counters["stage.rfid/Point.tuples"]; got != 0 {
		t.Fatalf("disabled countStage recorded %d tuples", got)
	}
}

// TestTelemetrySnapshotRaceWithRun hammers the unified snapshot (and
// the lineage dump) from a second goroutine while Run steps — run under
// -race via the Makefile check target.
func TestTelemetrySnapshotRaceWithRun(t *testing.T) {
	dep := shelfDeployment(t)
	p, err := NewProcessor(dep)
	if err != nil {
		t.Fatal(err)
	}
	lin := p.EnableLineage(4, 99)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-done:
				return
			default:
			}
			s := p.Telemetry().Snapshot()
			for k, v := range s.Counters {
				if v < 0 {
					t.Errorf("negative counter %s in concurrent snapshot", k)
					return
				}
			}
			buf.Reset()
			if err := lin.DumpJSON(&buf); err != nil {
				t.Errorf("concurrent lineage dump: %v", err)
				return
			}
		}
	}()

	start := time.Unix(0, 0).UTC()
	if err := p.Run(start, start.Add(20*time.Second)); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if lin.Len() == 0 {
		t.Error("no lineage traces recorded at 1/4 sampling over a 20s shelf run")
	}
}
