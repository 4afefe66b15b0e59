package core

import (
	"strings"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

// byLabel splits a recorded sink stream ("label|ts|values" lines) into
// one stream per label. Partitioning keeps every type's stream; how the
// streams of different types interleave is only kept when each type's
// receptors are listed next to each other (DESIGN.md §8).
func byLabel(sinks string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.SplitAfter(sinks, "\n") {
		if i := strings.Index(line, "|"); i >= 0 {
			out[line[:i]] += line
		}
	}
	return out
}

// TestPartitionedMatchesPerLeg runs the three paper deployments with
// their stages built once per type (the default) and once per leg and
// group (DisablePartitioning): the sink output and every tap stream must
// be byte-identical, the partitioned graph must really have collapsed, and
// it must not count a batch fallback the per-leg graph does not.
func TestPartitionedMatchesPerLeg(t *testing.T) {
	for _, c := range exampleCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			perLegCase := c
			perLegCase.build = func(t *testing.T) *Deployment {
				dep := c.build(t)
				dep.DisablePartitioning = true
				return dep
			}
			part := runExampleCase(t, c)
			perLeg := runExampleCase(t, perLegCase)
			if perLeg.sinks == "" {
				t.Fatal("per-leg run produced no sink output")
			}
			if part.sinks != perLeg.sinks {
				t.Fatalf("sink output differs: %s", firstDiff(perLeg.sinks, part.sinks))
			}
			for label, w := range perLeg.taps {
				if part.taps[label] != w {
					t.Fatalf("tap stream %s differs: %s", label, firstDiff(w, part.taps[label]))
				}
			}
			collapsed := 0
			var fallbacks, perLegFallbacks int64
			for _, ns := range part.nodes {
				fallbacks += ns.BatchFallbacks
				if strings.HasPrefix(ns.Label, "legs ") || strings.HasPrefix(ns.Label, "merges ") {
					collapsed++
				}
			}
			for _, ns := range perLeg.nodes {
				perLegFallbacks += ns.BatchFallbacks
				if strings.HasPrefix(ns.Label, "legs ") || strings.HasPrefix(ns.Label, "merges ") {
					t.Fatalf("DisablePartitioning built %s", ns.Label)
				}
			}
			if collapsed == 0 {
				t.Fatal("nothing collapsed: the comparison is vacuous")
			}
			if fallbacks > perLegFallbacks {
				t.Fatalf("partitioned graph counted %d batch fallbacks, per-leg %d", fallbacks, perLegFallbacks)
			}
			t.Logf("%d nodes partitioned vs %d per-leg; fallbacks %d vs %d", len(part.nodes), len(perLeg.nodes), fallbacks, perLegFallbacks)
		})
	}
}

// TestPartitionEligibility pins the rule that decides, from the stage
// plans alone, which of a type's stages are built once for the type.
func TestPartitionEligibility(t *testing.T) {
	identity := FuncStage{Name: "identity", Fn: func(*stream.Schema, BuildEnv) (stream.Operator, error) {
		return &stream.MapFunc{Fn: func(tu stream.Tuple) ([]stream.Tuple, error) { return []stream.Tuple{tu}, nil }}, nil
	}}
	perGroup := FuncStage{Name: "per-group", Fn: func(_ *stream.Schema, env BuildEnv) (stream.Operator, error) {
		// A different plan per group: the constant is the group's name.
		return stream.NewFilter(stream.NewBinary(stream.OpNe, stream.NewCol(ColGranule), stream.NewConst(stream.String(env.Group+"x")))), nil
	}}
	cases := []struct {
		name       string
		pl         Pipeline
		legs, mrgs bool // collapsed?
	}{
		{"row-wise and windows", Pipeline{Point: PointBelow("temp", 50), Smooth: SmoothAvg("temp", 2*time.Second), Merge: MergeAvg("temp", time.Second)}, true, true},
		{"no stages", Pipeline{}, true, false},
		// Several boundaries per punctuation leave a plan partitionable: the
		// kernel hands them on partition by partition (TestPartitionedSubEpochSlide).
		{"window slides faster than the epoch", Pipeline{Smooth: CQLStage{Query: "SELECT avg(temp) AS temp FROM s [Range By '1 sec' Slide By '250 ms']"}, Merge: MergeAvg("temp", time.Second)}, true, true},
		// A per-leg leg whose stages still output a spatial_granule column
		// may have computed it: its rows cannot route themselves.
		{"sample in point", Pipeline{Point: PointSample(2), Merge: MergeAvg("temp", time.Second)}, false, false},
		{"hand-written operator", Pipeline{Smooth: Compose(identity, SmoothAvg("temp", time.Second))}, false, false},
		{"hand-written operator, partitionable merge", Pipeline{Smooth: Compose(identity, SmoothAvg("temp", time.Second)), Merge: MergeAvg("temp", time.Second)}, false, true},
		// A per-group Merge node cannot be fed by a collapsed legs node (its
		// rows would have to be addressed group by group): the legs stay too.
		{"self-join merge", Pipeline{Smooth: SmoothAvg("temp", time.Second), Merge: MergeOutlierAvg("temp", time.Second, 2)}, false, false},
		{"merge plan varies by group", Pipeline{Merge: perGroup}, false, false},
		{"stage redefines a key", Pipeline{Point: CQLStage{Query: "SELECT receptor_id AS spatial_granule, temp FROM point_input"}}, false, false},
		{"stage computes its own granule, merge needs it", Pipeline{Point: PointSample(1), Smooth: CQLStage{Query: "SELECT 'g0' AS spatial_granule, avg(temp) AS temp FROM s [Range By '1 sec']"}, Merge: MergeAvg("temp", time.Second)}, false, false},
		{"argmax arbitrate stays a node of its own", Pipeline{Smooth: CQLStage{Query: "SELECT temp, count(*) AS n FROM s [Range By '1 sec'] GROUP BY temp"}, Arbitrate: ArbitrateMaxSum("temp", "n")}, true, false},
	}
	for _, tc := range cases {
		pl := tc.pl
		pl.Type = receptor.TypeMote
		groups := receptor.NewGroups()
		groups.MustAdd(receptor.Group{Name: "g0", Type: receptor.TypeMote, Members: []string{"m0", "m1"}})
		groups.MustAdd(receptor.Group{Name: "g1", Type: receptor.TypeMote, Members: []string{"m2"}})
		var recs []receptor.Receptor
		for _, id := range []string{"m0", "m1", "m2"} {
			recs = append(recs, receptor.NewReplay(id, receptor.TypeMote, moteTempSchema, nil))
		}
		p, err := NewProcessor(&Deployment{
			Epoch: time.Second, Receptors: recs, Groups: groups,
			Pipelines: map[receptor.Type]*Pipeline{receptor.TypeMote: &pl},
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var legs, mrgs bool
		for _, ns := range p.NodeStats() {
			legs = legs || ns.Label == "legs mote"
			mrgs = mrgs || ns.Label == "merges mote"
		}
		if legs != tc.legs || mrgs != tc.mrgs {
			t.Errorf("%s: legs collapsed %v (want %v), merges collapsed %v (want %v)", tc.name, legs, tc.legs, mrgs, tc.mrgs)
		}
	}
}

// subEpochSlideDeployment has a Smooth window sliding twice per epoch, so
// every punctuation releases two boundaries per leg, under a Merge whose
// float sum depends on the order those rows reach it, and a second type
// whose receptors are listed between the motes.
func subEpochSlideDeployment(t *testing.T) *Deployment {
	t.Helper()
	start := time.Unix(0, 0).UTC()
	trace := func(vals ...float64) []stream.Tuple {
		var ts []stream.Tuple
		for i, v := range vals {
			ts = append(ts, stream.NewTuple(start.Add(time.Duration(i)*time.Second+500*time.Millisecond), stream.Float(v)))
		}
		return ts
	}
	groups := receptor.NewGroups()
	groups.MustAdd(receptor.Group{Name: "g0", Type: receptor.TypeMote, Members: []string{"m0", "m1"}})
	groups.MustAdd(receptor.Group{Name: "g1", Type: receptor.TypeMote, Members: []string{"m2", "m0"}})
	groups.MustAdd(receptor.Group{Name: "s0", Type: receptor.TypeRFID, Members: []string{"r0"}})
	return &Deployment{
		Epoch:  2 * time.Second,
		Groups: groups,
		Receptors: []receptor.Receptor{
			receptor.NewReplay("m0", receptor.TypeMote, moteTempSchema, trace(1e16, -1e16, 3, 1e16, -1e16, 5, 7, 9)),
			receptor.NewReplay("r0", receptor.TypeRFID, moteTempSchema, trace(1, 2, 3, 4, 5, 6, 7, 8)),
			receptor.NewReplay("m1", receptor.TypeMote, moteTempSchema, trace(1, 1, 1e16, 1, 1, -1e16, 2, 2)),
			receptor.NewReplay("m2", receptor.TypeMote, moteTempSchema, trace(4, 8, 15, 16, 23, 42, 1, 2)),
		},
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeMote: {
				Type:   receptor.TypeMote,
				Smooth: CQLStage{Query: "SELECT avg(temp) AS temp FROM smooth_input [Range By '1 sec' Slide By '1 sec']"},
				Merge:  CQLStage{Query: "SELECT sum(temp) AS temp FROM merge_input [Range By '4 sec' Slide By '1 sec']"},
			},
			receptor.TypeRFID: {
				Type:  receptor.TypeRFID,
				Point: CQLStage{Query: "SELECT temp + 1 AS temp FROM point_input"},
			},
		},
	}
}

// TestPartitionedSubEpochSlide: a window that slides faster than the
// processor punctuates releases several boundaries per Advance. The
// collapsed node must hand them on leg by leg (and group by group), as
// the per-leg graph does — not boundary by boundary.
func TestPartitionedSubEpochSlide(t *testing.T) {
	c := exampleCase{name: "sub-epoch slide", epoch: 2 * time.Second, dur: 8 * time.Second, build: subEpochSlideDeployment}
	perLegCase := c
	perLegCase.build = func(t *testing.T) *Deployment {
		dep := c.build(t)
		dep.DisablePartitioning = true
		return dep
	}
	perLeg := runExampleCase(t, perLegCase)
	if perLeg.taps["tap/mote/Merge"] == "" {
		t.Fatal("per-leg run produced no Merge output")
	}
	part := runExampleCase(t, c)
	collapsed := 0
	for _, ns := range part.nodes {
		if ns.Label == "legs mote" || ns.Label == "merges mote" {
			collapsed++
		}
	}
	if collapsed != 2 {
		t.Fatalf("%d collapsed mote nodes, want legs and merges", collapsed)
	}
	want := byLabel(perLeg.sinks)
	for label, got := range byLabel(part.sinks) {
		if got != want[label] {
			t.Fatalf("sink stream %s differs: %s", label, firstDiff(want[label], got))
		}
	}
	for label, w := range perLeg.taps {
		if part.taps[label] != w {
			t.Fatalf("tap stream %s differs: %s", label, firstDiff(w, part.taps[label]))
		}
	}
}
