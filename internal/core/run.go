package core

import (
	"context"
	"fmt"
	"time"

	"esp/internal/cql"
	"esp/internal/stream"
)

// Run drives the deployment from start (exclusive) to end (inclusive):
// one Step per epoch. Sinks and taps must be registered before Run.
func (p *Processor) Run(start, end time.Time) error {
	return p.RunContext(context.Background(), start, end)
}

// RunContext is Run with cancellation: ctx is checked at every epoch
// boundary, so a long run stops within one epoch's work of
// cancellation and returns ctx.Err(). Cancellation granularity is the
// epoch — a Step in flight always completes, keeping every stage's
// window state consistent (see DESIGN.md §3).
func (p *Processor) RunContext(ctx context.Context, start, end time.Time) error {
	for now := start.Add(p.dep.Epoch); !now.After(end); now = now.Add(p.dep.Epoch) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := p.Step(now); err != nil {
			return err
		}
	}
	return nil
}

// Step executes one epoch ending at now: it polls every receptor, pushes
// the batches through the dataflow graph and punctuates every node in an
// order consistent with the pipeline (legs, then merges, then
// arbitrates, then virtualize) so windowed results cascade
// deterministically.
func (p *Processor) Step(now time.Time) error {
	if p.polled == nil {
		p.polled = make([][]stream.Tuple, len(p.dep.Receptors))
	}
	defer clear(p.polled) // the epoch's tuples are the receptors' to reclaim
	for i := range p.dep.Receptors {
		p.polled[i] = p.poll(i, now)
	}
	var ls *lineageStep
	if p.tel.Enabled() {
		// Lineage snapshots the stage counters before this epoch's polled
		// tuples are accounted, so span deltas cover the whole epoch.
		if p.lin != nil {
			ls = p.beginLineage(now, p.polled)
		}
		p.countPolled(p.polled)
	}
	if err := p.graph.step(now, p.polled); err != nil {
		return err
	}
	if ls != nil {
		p.finishLineage(ls)
	}
	for _, fn := range p.epochSinks {
		fn(now)
	}
	return nil
}

// poll gathers one receptor's epoch batch, through the supervisor when
// one is enabled (deadlines, panic isolation, quarantine) and directly
// otherwise.
func (p *Processor) poll(i int, now time.Time) []stream.Tuple {
	if p.sup != nil {
		return p.sup.poll(i, now)
	}
	return p.dep.Receptors[i].Poll(now)
}

// planVirtualize plans the Virtualize query against the per-type output
// schemas.
func planVirtualize(query string, cat map[string]*stream.Schema, env BuildEnv) (*stream.Graph, error) {
	stmt, err := cql.Parse(query)
	if err != nil {
		return nil, err
	}
	catalog := cql.Catalog{}
	for name, sch := range cat {
		catalog[name] = sch
	}
	g, err := cql.Plan(stmt, catalog, cql.PlanConfig{
		Slide:      env.Epoch,
		Tables:     env.Tables,
		NoOptimize: env.NoOptimize,
	})
	if err != nil {
		return nil, err
	}
	// Every bound input must actually be read by the plan.
	have := make(map[string]bool)
	for _, n := range g.Inputs() {
		have[n] = true
	}
	for name := range cat {
		if !have[name] {
			return nil, fmt.Errorf("core: Virtualize query does not read bound input %q", name)
		}
	}
	return g, nil
}
