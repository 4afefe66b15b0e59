package core

import (
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

// copyOp is a deliberately batch-incapable identity operator: deliveries
// reaching it columnar must run the row-at-a-time shim and count exactly
// one batch fallback per delivery.
type copyOp struct{ out *stream.Schema }

func (o *copyOp) Open(in *stream.Schema) error { o.out = in; return nil }
func (o *copyOp) Schema() *stream.Schema       { return o.out }
func (o *copyOp) Process(t stream.Tuple) ([]stream.Tuple, error) {
	return []stream.Tuple{t}, nil
}
func (o *copyOp) Advance(time.Time) ([]stream.Tuple, error) { return nil, nil }
func (o *copyOp) Close() ([]stream.Tuple, error)            { return nil, nil }

// absorbOp swallows every tuple (batch-incapable). Chained after a
// degradation it reproduces the degrade-then-absorb blind spot: the
// composite returns (nil, nil, nil) as if it had stayed columnar.
type absorbOp struct{ out *stream.Schema }

func (o *absorbOp) Open(in *stream.Schema) error                 { o.out = in; return nil }
func (o *absorbOp) Schema() *stream.Schema                       { return o.out }
func (o *absorbOp) Process(stream.Tuple) ([]stream.Tuple, error) { return nil, nil }
func (o *absorbOp) Advance(time.Time) ([]stream.Tuple, error)    { return nil, nil }
func (o *absorbOp) Close() ([]stream.Tuple, error)               { return nil, nil }

func plainStage(name string, mk func() stream.Operator) Stage {
	return FuncStage{Name: name, Fn: func(in *stream.Schema, env BuildEnv) (stream.Operator, error) {
		op := mk()
		return op, nil
	}}
}

// fallbackCounts sums BatchFallbacks per node kind.
func fallbackCounts(p *Processor) map[string]int64 {
	out := make(map[string]int64)
	for _, st := range p.NodeStats() {
		out[st.Kind] += st.BatchFallbacks
	}
	return out
}

// TestBatchFallbackExactCounts pins the fallback accounting rule: a
// columnar delivery that leaves the batch path counts exactly once, at
// the node where it degrades, and never again downstream.
func TestBatchFallbackExactCounts(t *testing.T) {
	cases := []struct {
		name  string
		merge Stage
		arb   Stage
		want  map[string]int64 // expected fallbacks per node kind
	}{
		{
			// Merge has no batch implementation: both columnar deliveries
			// degrade there and count once each. Arbitrate is equally
			// batch-incapable but receives the already-degraded tuples, so
			// it must NOT count them again.
			name:  "shim-at-merge-not-recounted-at-arbitrate",
			merge: plainStage("copy", func() stream.Operator { return &copyOp{} }),
			arb:   plainStage("copy", func() stream.Operator { return &copyOp{} }),
			want:  map[string]int64{"leg": 0, "merge": 2, "arbitrate": 0, "output": 0},
		},
		{
			// Merge stays columnar (empty Chain is a batch-capable
			// identity); the degradation happens at Arbitrate and counts
			// there, once per delivery.
			name:  "columnar-merge-shim-at-arbitrate",
			merge: plainStage("chain", func() stream.Operator { return stream.NewChain() }),
			arb:   plainStage("copy", func() stream.Operator { return &copyOp{} }),
			want:  map[string]int64{"leg": 0, "merge": 0, "arbitrate": 2, "output": 0},
		},
		{
			// Degrade-then-absorb: the Merge chain degrades at its
			// batch-incapable head, then the tail swallows every tuple, so
			// the composite returns (nil, nil, nil) — indistinguishable
			// from a fully-columnar absorption without the degrade
			// reporter. The counter must still see both degradations.
			name: "degrade-then-absorb-at-merge",
			merge: plainStage("degrade-absorb", func() stream.Operator {
				return stream.NewChain(&copyOp{}, &absorbOp{})
			}),
			arb:  plainStage("copy", func() stream.Operator { return &copyOp{} }),
			want: map[string]int64{"leg": 0, "merge": 2, "arbitrate": 0, "output": 0},
		},
		{
			// Fully columnar pipeline: nothing may count.
			name:  "no-degradation",
			merge: plainStage("chain", func() stream.Operator { return stream.NewChain() }),
			arb:   plainStage("chain", func() stream.Operator { return stream.NewChain() }),
			want:  map[string]int64{"leg": 0, "merge": 0, "arbitrate": 0, "output": 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFallbackCase(t, tc.merge, tc.arb)
			for kind, want := range tc.want {
				if got[kind] != want {
					t.Errorf("%s fallbacks = %d, want %d (all: %v)", kind, got[kind], want, got)
				}
			}
		})
	}
}

// TestBatchFallbackVirtualizeAbsorbNotCounted pins the other half of the
// rule for the Virtualize node: a windowed CQL graph that absorbs its
// columnar input (releasing on punctuation) has NOT degraded, so the
// counter stays zero — absorption and degradation are different things.
func TestBatchFallbackVirtualizeAbsorbNotCounted(t *testing.T) {
	rec := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw,
		queue: []stream.Tuple{
			rfidRead(0.2, "A", true),
			rfidRead(1.2, "B", true),
		}}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{rec},
		Groups:    singleGroup("shelf0", receptor.TypeRFID, "r0"),
		Virtualize: &VirtualizeSpec{
			Query: "SELECT count(*) AS n FROM cleaned [Range By 'NOW']",
			Bind:  map[string]receptor.Type{"cleaned": receptor.TypeRFID},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var emitted int
	p.OnVirtualize(func(stream.Tuple) { emitted++ })
	if err := p.Run(at(0), at(2)); err != nil {
		t.Fatal(err)
	}
	for _, st := range p.NodeStats() {
		if st.Kind == "virtualize" {
			if st.BatchesIn != 2 {
				t.Errorf("virtualize BatchesIn = %d, want 2 (columnar deliveries)", st.BatchesIn)
			}
			if st.BatchFallbacks != 0 {
				t.Errorf("virtualize BatchFallbacks = %d, want 0 (absorb is not degrade)", st.BatchFallbacks)
			}
		}
	}
	if emitted != 2 {
		t.Errorf("virtualize emitted %d tuples, want 2", emitted)
	}
}

// runFallbackCase is runFallbackDeployment flattened to per-kind totals.
func runFallbackCase(t *testing.T, merge, arb Stage) map[string]int64 {
	t.Helper()
	rec := &fakeReceptor{id: "r0", typ: receptor.TypeRFID, schema: rfidRaw,
		queue: []stream.Tuple{
			rfidRead(0.2, "A", true),
			rfidRead(0.4, "B", true),
			rfidRead(1.2, "C", true),
		}}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{rec},
		Groups:    singleGroup("shelf0", receptor.TypeRFID, "r0"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {Type: receptor.TypeRFID, Merge: merge, Arbitrate: arb},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(at(0), at(3)); err != nil {
		t.Fatal(err)
	}
	// Sanity: both data epochs really arrived columnar at the merge node.
	for _, st := range p.NodeStats() {
		if st.Kind == "merge" && st.BatchesIn != 2 {
			t.Fatalf("merge BatchesIn = %d, want 2 columnar deliveries (%s)", st.BatchesIn, st.Label)
		}
	}
	return fallbackCounts(p)
}
