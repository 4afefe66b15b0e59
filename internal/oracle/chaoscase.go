package oracle

import (
	"fmt"
	"math/rand"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

// chaos-drop-commute: drop faults gate on each tuple's timestamp and
// consume one RNG draw per in-window tuple in trace order, so injecting
// them online (receptor.Faulty wrapping the replay) must be
// indistinguishable from thinning the recorded trace offline
// (receptor.ThinTrace) and replaying the survivors — byte-identical on
// every sink, tap, and Virtualize stream. This is the property that
// makes chaos runs analysable: a faulty run IS a clean run on a thinner
// trace.

// chaosFaultSeed derives receptor i's injector seed from the case seed.
func chaosFaultSeed(c *DeploymentCase, i int) int64 {
	return c.Seed*7919 + int64(i)
}

// genChaosFaults derives a drop-only schedule per receptor from the case
// seed: one or two windows each, random placement and probability. It
// depends only on (Seed, receptor count, Epochs), so trace minimization
// leaves the schedule intact.
func genChaosFaults(c *DeploymentCase) [][]receptor.Fault {
	r := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	span := time.Duration(c.Epochs) * c.Epoch
	out := make([][]receptor.Fault, len(c.IDs))
	for i := range c.IDs {
		for j, nf := 0, 1+r.Intn(2); j < nf; j++ {
			from := time.Duration(r.Int63n(int64(span)))
			width := time.Duration(r.Int63n(int64(span-from) + 1))
			out[i] = append(out[i], receptor.Fault{
				Kind:  receptor.FaultDrop,
				P:     0.2 + 0.6*r.Float64(),
				From:  epoch0.Add(from),
				Until: epoch0.Add(from + width),
			})
		}
	}
	return out
}

// runChaosOnline runs the case with each replay receptor wrapped in its
// fault injector.
func runChaosOnline(c DeploymentCase, faults [][]receptor.Fault) (*depOutput, error) {
	dep, err := c.build(false)
	if err != nil {
		return nil, err
	}
	for i := range dep.Receptors {
		dep.Receptors[i] = receptor.NewFaulty(dep.Receptors[i], chaosFaultSeed(&c, i), faults[i]...)
	}
	return c.runDep(dep)
}

// runChaosThinned thins every trace offline with the same (seed,
// schedule) pairs and runs the clean deployment on the survivors.
func runChaosThinned(c DeploymentCase, faults [][]receptor.Fault, seedOf func(i int) int64) (*depOutput, error) {
	thin := c
	thin.Traces = make([][]stream.Tuple, len(c.Traces))
	for i := range c.Traces {
		tt, err := receptor.ThinTrace(c.Traces[i], seedOf(i), faults[i]...)
		if err != nil {
			return nil, err
		}
		thin.Traces[i] = tt
	}
	return thin.runWith(false)
}

// CheckChaosCase cross-checks online fault injection against offline
// trace thinning, byte-level on every observable stream.
func CheckChaosCase(c DeploymentCase) *Divergence {
	check := func(t DeploymentCase) *Divergence {
		fail := func(diff string) *Divergence {
			return &Divergence{Check: "chaos-drop-commute", Seed: t.Seed, Case: t.String(), Diff: diff}
		}
		faults := genChaosFaults(&t)
		online, err := runChaosOnline(t, faults)
		if err != nil {
			return fail(fmt.Sprintf("online error: %v", err))
		}
		thinned, err := runChaosThinned(t, faults, func(i int) int64 { return chaosFaultSeed(&t, i) })
		if err != nil {
			return fail(fmt.Sprintf("thinned error: %v", err))
		}
		if online.rendered != thinned.rendered {
			return fail(firstDiff(online.rendered, thinned.rendered))
		}
		return nil
	}
	if d := check(c); d != nil {
		return minimizeDeployment(c, d, check)
	}
	return nil
}
