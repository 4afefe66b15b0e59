package core

import (
	"fmt"
	"sort"
	"strings"

	"esp/internal/receptor"
)

// Stats is a snapshot of tuple counts through the pipeline, keyed
// "type/stage" (e.g. "rfid/Smooth") plus "virtualize" — the operational
// visibility a deployment needs to see where readings are produced,
// dropped, and condensed.
type Stats map[string]int64

// String renders the snapshot sorted by key.
func (s Stats) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%d", k, s[k])
	}
	return sb.String()
}

// EnableStats turns on stage accounting (a view over the unified
// telemetry registry — see telemetry.go) and returns a live snapshot
// function. Must be called before Run; the snapshot function may be
// called from any goroutine, including concurrently with a run (the
// counters are atomics). The same counts appear in Telemetry() under
// "stage.<type>/<Stage>.tuples" and "stage.virtualize.tuples".
func (p *Processor) EnableStats() func() Stats {
	p.EnableTelemetry()
	stages := []StageKind{StagePoint, StageSmooth, StageMerge, StageArbitrate}
	return func() Stats {
		out := make(Stats, len(p.typeOrder)*len(stages)+1)
		for _, t := range p.typeOrder {
			sc := p.typeStage[t]
			for _, stage := range stages {
				out[fmt.Sprintf("%s/%s", t, stage)] = sc.out[stage].Load()
			}
		}
		if p.virt != nil {
			out["virtualize"] = p.virtOut.Load()
		}
		return out
	}
}

// Describe renders the deployment's pipeline configuration — which stages
// are installed for which types, group membership counts, and the
// Virtualize bindings — for logs and operator inspection.
func (p *Processor) Describe() string {
	var sb strings.Builder
	byType := make(map[receptor.Type][]string)
	legCount := 0
	for _, n := range p.graph.nodes {
		switch leg := n.(type) {
		case *legNode:
			legCount++
			byType[leg.typ] = append(byType[leg.typ], fmt.Sprintf("%s@%s", leg.rec.ID(), leg.group))
		case *legsNode:
			legCount += len(leg.members)
			for _, m := range leg.members {
				byType[leg.typ] = append(byType[leg.typ], fmt.Sprintf("%s@%s", m.rec.ID(), m.group))
			}
		}
	}
	fmt.Fprintf(&sb, "ESP deployment: epoch %v, %d receptor(s), %d leg(s)\n",
		p.dep.Epoch, len(p.dep.Receptors), legCount)
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, ts := range types {
		t := receptor.Type(ts)
		fmt.Fprintf(&sb, "  type %s: %s\n", t, strings.Join(byType[t], ", "))
		pl := p.pipelineFor(t)
		if pl == nil {
			sb.WriteString("    (pass-through: no pipeline)\n")
			continue
		}
		describeStage(&sb, "Point", pl.Point)
		describeStage(&sb, "Smooth", pl.Smooth)
		describeStage(&sb, "Merge", pl.Merge)
		describeStage(&sb, "Arbitrate", pl.Arbitrate)
		if sch, ok := p.TypeSchema(t); ok {
			fmt.Fprintf(&sb, "    output %s\n", sch)
		}
	}
	if p.dep.Virtualize != nil {
		binds := make([]string, 0, len(p.dep.Virtualize.Bind))
		for name, t := range p.dep.Virtualize.Bind {
			binds = append(binds, fmt.Sprintf("%s<-%s", name, t))
		}
		sort.Strings(binds)
		fmt.Fprintf(&sb, "  Virtualize: %s\n", strings.Join(binds, ", "))
		if p.virt != nil {
			fmt.Fprintf(&sb, "    output %s\n", p.virt.g.Schema())
		}
	}
	return sb.String()
}

func describeStage(sb *strings.Builder, name string, s Stage) {
	if s == nil {
		return
	}
	fmt.Fprintf(sb, "    %-9s %s\n", name, s.Describe())
}
