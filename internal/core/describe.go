package core

import (
	"fmt"
	"sort"
	"strings"

	"esp/internal/receptor"
)

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
