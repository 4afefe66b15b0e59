// Package oracle is the differential correctness harness for the ESP
// pipeline: small, obviously-correct reference implementations of
// windowed aggregation and the five-stage pipeline, seeded deterministic
// generators of random window programs and deployments (reusing
// internal/sim), and a runner that executes every generated case several
// ways and fails with a minimized, seed-reproducible counterexample on
// divergence.
//
// Cross-checks (see DESIGN.md, "Correctness harness"):
//
//   - pane-vs-naive: WindowAgg's pane-merge path against its
//     re-aggregating emitNaive path, byte-level.
//   - window-vs-reference: WindowAgg against a two-pass reference that
//     recomputes every window from the documented contract, within float
//     tolerance.
//   - pipeline-vs-reference: a restricted deployment family against a
//     straight-line interpreter of the five-stage contract, within float
//     tolerance.
//   - cql-vs-handbuilt: stages compiled from CQL against hand-built
//     operator graphs over identical receptor traces, byte-level.
//   - batched-vs-tuple: a deployment with columnar batch exchange (the
//     default) against the same deployment pinned to the row-at-a-time
//     path (Deployment.DisableBatching), byte-level.
//   - optimized-vs-unoptimized: a deployment planned with the CQL
//     rewrite pass (the default) against the same deployment planned
//     naively (Deployment.DisableOptimizer), byte-level.
//   - partitioned-vs-per-leg: a deployment whose Point/Smooth and Merge
//     stages are built once per receptor type (the default where the
//     plans allow) against the same deployment with one node per leg and
//     per group (Deployment.DisablePartitioning), byte-level.
//   - chaos-drop-commute: online drop-fault injection (receptor.Faulty)
//     against offline trace thinning (receptor.ThinTrace), byte-level.
//   - recovery-replay-commute: a served deployment killed at a random
//     epoch and recovered from its write-ahead log against an
//     uninterrupted run, byte-level by output fingerprint.
//
// Byte-level comparison is sound only between execution paths that fold
// the same value multiset in the same order through the same accumulator
// code; reference comparisons tolerate last-ulp float differences
// (tolerance 1e-9 relative) because the reference deliberately uses
// different arithmetic (two-pass) than the production accumulators.
package oracle

import (
	"fmt"
	"math"
	"strings"

	"esp/internal/stream"
)

// Config parameterises a differential run.
type Config struct {
	// Seed is the base seed; case i of each check derives its own seed
	// from it, so any reported counterexample is reproducible from the
	// (check, seed) pair alone.
	Seed int64
	// WindowCases, RefCases, PlanCases, BatchCases, OptCases,
	// PartitionCases, ChaosCases and RecoveryCases size the case
	// generators, one per check family.
	WindowCases, RefCases, PlanCases, BatchCases, OptCases, PartitionCases, ChaosCases, RecoveryCases int
	// RefStdev, when non-nil, replaces the reference implementation's
	// standard-deviation finisher. The harness's own tests use it to
	// inject a deliberately wrong aggregate (the legacy catastrophically
	// cancelling sum-of-squares formula) and assert the runner catches it
	// with a seed-reproducible counterexample.
	RefStdev func(vals []float64) float64
}

// DefaultConfig sizes a run for `make check`: every check exercised,
// ≥ 50 cases total, a few seconds of wall clock.
func DefaultConfig() Config {
	return Config{Seed: 1, WindowCases: 40, RefCases: 8, PlanCases: 10, BatchCases: 8, OptCases: 8, PartitionCases: 24, ChaosCases: 8, RecoveryCases: 6}
}

// Divergence is one caught disagreement between two execution paths of
// the same case. It is an error whose text is a full reproduction
// recipe.
type Divergence struct {
	// Check names the cross-check that tripped, e.g. "pane-vs-naive".
	Check string
	// Seed regenerates the case: the same (Check, Seed) pair always
	// rebuilds the identical case and inputs.
	Seed int64
	// Case renders the (minimized, where supported) failing case.
	Case string
	// Diff locates the first disagreement between the two paths.
	Diff string
}

// Error implements error: the report format documented in DESIGN.md.
func (d *Divergence) Error() string {
	return fmt.Sprintf("oracle: divergence in check %s (seed %d)\n--- case ---\n%s\n--- diff ---\n%s",
		d.Check, d.Seed, d.Case, d.Diff)
}

// renderTuples renders a tuple stream one line per tuple — the byte-level
// comparison form. Two paths that agree must render identically.
func renderTuples(ts []stream.Tuple) string {
	var sb strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&sb, "%d|%v\n", t.Ts.UnixNano(), t.Values)
	}
	return sb.String()
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %q\n  b: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// floatClose reports whether two floats agree within the reference
// tolerance (1e-9 relative, with an absolute floor for values near zero).
func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// valueClose compares two values: floats within tolerance, everything
// else exactly.
func valueClose(a, b stream.Value) bool {
	if a.Kind() == stream.KindFloat && b.Kind() == stream.KindFloat {
		return floatClose(a.AsFloat(), b.AsFloat())
	}
	return a == b
}

// compareToRef structurally compares an execution's tuples against the
// reference's, with float tolerance. Returns "" on agreement, else a
// description of the first disagreement.
func compareToRef(got, ref []stream.Tuple) string {
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		g, r := got[i], ref[i]
		if !g.Ts.Equal(r.Ts) {
			return fmt.Sprintf("tuple %d: ts %v vs reference %v", i, g.Ts, r.Ts)
		}
		if len(g.Values) != len(r.Values) {
			return fmt.Sprintf("tuple %d: %d values vs reference %d", i, len(g.Values), len(r.Values))
		}
		for j := range g.Values {
			if !valueClose(g.Values[j], r.Values[j]) {
				return fmt.Sprintf("tuple %d value %d: %v vs reference %v", i, j, g.Values[j], r.Values[j])
			}
		}
	}
	if len(got) != len(ref) {
		return fmt.Sprintf("tuple count: %d vs reference %d (first unmatched: %s)",
			len(got), len(ref), firstUnmatched(got, ref))
	}
	return ""
}

func firstUnmatched(got, ref []stream.Tuple) string {
	if len(got) > len(ref) {
		return fmt.Sprintf("extra %v", got[len(ref)])
	}
	return fmt.Sprintf("missing %v", ref[len(got)])
}
