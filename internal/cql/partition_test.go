package cql

import (
	"strings"
	"testing"
	"time"

	"esp/internal/stream"
)

var annotatedShelf = stream.MustSchema(
	stream.Field{Name: "receptor_id", Kind: stream.KindString},
	stream.Field{Name: "spatial_granule", Kind: stream.KindString},
	stream.Field{Name: "tag_id", Kind: stream.KindString},
	stream.Field{Name: "checksum_ok", Kind: stream.KindBool},
)

var legPartitionKeys = []string{"receptor_id", "spatial_granule"}

// linearPlan plans a single-stream query over the annotated shelf schema
// and returns its flattened operators.
func linearPlan(t *testing.T, src string) []stream.Operator {
	t.Helper()
	g, err := PlanString(src, Catalog{"s": annotatedShelf}, PlanConfig{Slide: time.Second})
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	ops, ok := g.Linear()
	if !ok {
		t.Fatalf("plan %q is not linear", src)
	}
	return ops
}

// TestPartitionPlanLiftsKeys: projections carry the keys they drop, in
// key order and in front; window aggregates take the keys as their
// partition; and the rewritten plan opens to the original output with the
// missing keys prepended.
func TestPartitionPlanLiftsKeys(t *testing.T) {
	parts := [][]stream.Value{
		{stream.String("r1"), stream.String("shelf1")},
		{stream.String("r0"), stream.String("shelf0")},
	}
	cases := []struct {
		src      string
		wantOps  []string
		wantCols string
	}{
		{
			"SELECT tag_id FROM s WHERE checksum_ok = TRUE",
			[]string{"FilterProject((checksum_ok = true) -> receptor_id, spatial_granule, tag_id)"},
			"(receptor_id string, spatial_granule string, tag_id string)",
		},
		{
			"SELECT spatial_granule, tag_id FROM s",
			[]string{"Project(receptor_id, spatial_granule, tag_id)"},
			"(receptor_id string, spatial_granule string, tag_id string)",
		},
		{
			"SELECT tag_id, count(*) AS n FROM s [Range By '5 sec'] GROUP BY tag_id",
			[]string{"WindowAgg[range 5s slide 1s](group by tag_id; count(*) AS n)"},
			"(receptor_id string, spatial_granule string, tag_id string, n int)",
		},
		{
			"SELECT spatial_granule, count(*) AS n FROM s [Range By 'NOW'] GROUP BY spatial_granule",
			[]string{"WindowAgg[range 1s slide 1s](group by spatial_granule; count(*) AS n)"},
			"(receptor_id string, spatial_granule string, n int)",
		},
	}
	for _, tc := range cases {
		ops, ok := PartitionPlan(linearPlan(t, tc.src), legPartitionKeys, parts)
		if !ok {
			t.Errorf("%s: not partitionable", tc.src)
			continue
		}
		if got := describeOps(ops); strings.Join(got, " | ") != strings.Join(tc.wantOps, " | ") {
			t.Errorf("%s:\n got %v\nwant %v", tc.src, got, tc.wantOps)
		}
		for _, op := range ops {
			if w, isAgg := op.(*stream.WindowAgg); isAgg && (strings.Join(w.PartitionBy, ",") != "receptor_id,spatial_granule" || len(w.Partitions) != 2) {
				t.Errorf("%s: aggregate partitioned by %v over %d partitions", tc.src, w.PartitionBy, len(w.Partitions))
			}
		}
		chain := stream.NewChain(ops...)
		if err := chain.Open(annotatedShelf); err != nil {
			t.Errorf("%s: open: %v", tc.src, err)
			continue
		}
		if got := chain.Schema().String(); got != tc.wantCols {
			t.Errorf("%s: output %s, want %s", tc.src, got, tc.wantCols)
		}
	}
}

// TestPartitionPlanRefuses: any operator that is neither row-wise nor a
// window aggregate, and any plan that gives a key's name to something
// else, keeps one instance per key.
func TestPartitionPlanRefuses(t *testing.T) {
	for _, src := range []string{
		// ArgMax (the >= ALL rewrite)
		`SELECT spatial_granule, tag_id FROM s a [Range By 'NOW'] GROUP BY spatial_granule, tag_id
		 HAVING count(*) >= ALL(SELECT count(*) FROM s b [Range By 'NOW'] WHERE a.tag_id = b.tag_id GROUP BY spatial_granule)`,
		"SELECT tag_id AS receptor_id FROM s",
		"SELECT tag_id AS spatial_granule, count(*) AS n FROM s [Range By '1 sec'] GROUP BY tag_id",
		"SELECT count(*) AS receptor_id FROM s [Range By '1 sec']",
	} {
		if _, ok := PartitionPlan(linearPlan(t, src), legPartitionKeys, nil); ok {
			t.Errorf("%s: partitioned, want refused", src)
		}
	}
	for _, op := range []stream.Operator{
		&stream.Sample{EveryN: 2},
		&stream.Distinct{},
		&stream.MapFunc{Fn: func(tu stream.Tuple) ([]stream.Tuple, error) { return nil, nil }},
		&stream.WindowAgg{PartitionBy: []string{"tag_id"}, Slide: time.Second},
	} {
		if _, ok := PartitionPlan([]stream.Operator{op}, legPartitionKeys, nil); ok {
			t.Errorf("%T: partitioned, want refused", op)
		}
	}
}

func TestSamePlan(t *testing.T) {
	q := "SELECT tag_id, count(*) AS n FROM s [Range By '5 sec'] WHERE checksum_ok = TRUE GROUP BY tag_id"
	a, b := linearPlan(t, q), linearPlan(t, q)
	if !SamePlan(a, b) {
		t.Errorf("two plans of one query differ:\n%v\n%v", describeOps(a), describeOps(b))
	}
	for _, other := range []string{
		"SELECT tag_id, count(*) AS n FROM s [Range By '6 sec'] WHERE checksum_ok = TRUE GROUP BY tag_id",
		"SELECT tag_id, count(*) AS n FROM s [Range By '5 sec'] WHERE checksum_ok = FALSE GROUP BY tag_id",
		"SELECT tag_id, count(*) AS n FROM s [Range By '5 sec'] GROUP BY tag_id",
	} {
		if SamePlan(a, linearPlan(t, other)) {
			t.Errorf("plans of %q and %q compare the same", q, other)
		}
	}
	naive := linearPlan(t, q)
	naive[len(naive)-1].(*stream.WindowAgg).Naive = true
	if SamePlan(a, naive) {
		t.Error("a Naive aggregate compares the same as a paned one")
	}
	if SamePlan([]stream.Operator{&stream.Sample{EveryN: 2}}, []stream.Operator{&stream.Sample{EveryN: 2}}) {
		t.Error("plans of non-partitionable operators must never compare the same")
	}
}
