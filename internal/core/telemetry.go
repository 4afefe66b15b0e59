package core

import (
	"fmt"
	"log/slog"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
	"esp/internal/telemetry"
)

// This file wires the unified telemetry layer (internal/telemetry)
// through the processor: every dataflow node's counters and stage-latency
// histogram live in one per-processor registry, the supervised poll path
// and receptor channels report into it, and the sampled tuple-lineage
// recorder derives per-stage spans from the registry's epoch deltas.
// NodeStats and HealthStats are views over this one counter source
// (DESIGN.md §7).

// Telemetry returns the processor's metric registry — always non-nil;
// extended accounting (stage totals, poll latency, lineage) activates
// with EnableTelemetry.
func (p *Processor) Telemetry() *telemetry.Registry { return p.tel }

// EnableTelemetry turns on extended runtime telemetry: per-type stage
// tuple accounting at every punctuation, supervised poll latency
// histograms, and lineage sampling (when EnableLineage is also called).
// The per-tuple hot path is unaffected when disabled — the gate is a
// single atomic load, and the disabled path performs no extra work and
// no allocations (asserted by TestTelemetryDisabledZeroAlloc).
func (p *Processor) EnableTelemetry() { p.tel.SetEnabled(true) }

// EnableLineage turns on sampled tuple-lineage tracing: a deterministic
// seeded sampler tags ~1/sampleN polled readings, and each tagged
// reading gets an epoch-stamped span per pipeline stage
// (Point→Smooth→Merge→Arbitrate→Virtualize) recording what the stage
// did to the reading's epoch cohort. Implies EnableTelemetry. Returns
// the recorder for dumping (see telemetry.Lineage.DumpJSON). Call
// before Run.
func (p *Processor) EnableLineage(sampleN int, seed int64) *telemetry.Lineage {
	p.EnableTelemetry()
	p.lin = telemetry.NewLineage(sampleN, seed)
	return p.lin
}

// Lineage returns the lineage recorder (nil until EnableLineage).
func (p *Processor) Lineage() *telemetry.Lineage { return p.lin }

// stageCounters is one receptor type's per-stage tuple accounting:
// polled input plus each stage's released-tuple counter. Populated only
// while telemetry is enabled.
type stageCounters struct {
	polled *telemetry.Counter
	out    [StageVirtualize]*telemetry.Counter // indexed by StageKind, Point..Arbitrate
}

// initTelemetry registers the processor's metrics after the graph is
// compiled: per-node counters and latency histograms (the NodeStats
// backing store), per-type stage counters, channel-receptor buffer
// gauges, and window occupancy gauges.
func (p *Processor) initTelemetry() {
	g := p.graph
	for i, n := range g.nodes {
		prefix := "node." + n.label() + "."
		st := &g.stats[i]
		st.tuplesIn = p.tel.Counter(prefix + "tuples_in")
		st.tuplesOut = p.tel.Counter(prefix + "tuples_out")
		st.batchesIn = p.tel.Counter(prefix + "batches_in")
		st.batchRows = p.tel.Counter(prefix + "batch_rows")
		st.batchFallbacks = p.tel.Counter(prefix + "batch_fallbacks")
		st.panics = p.tel.Counter(prefix + "panics")
		st.advance = p.tel.Histogram(prefix + "advance_ns")
		q := &g.quarantined[i]
		p.tel.GaugeFunc(prefix+"quarantined", func() int64 {
			if q.Load() {
				return 1
			}
			return 0
		})
		// Window machinery inside the node: pane occupancy and late-drop
		// counts, summed over the node's operators (WindowAgg keeps the
		// mirrors as atomics, so snapshot-time reads are race-free).
		if srcs := n.windowSources(); len(srcs) > 0 {
			p.tel.GaugeFunc(prefix+"window_panes", func() int64 {
				var panes int64
				for _, s := range srcs {
					ps, _ := s.WindowTelemetry()
					panes += ps
				}
				return panes
			})
			p.tel.GaugeFunc(prefix+"window_late_drops", func() int64 {
				var drops int64
				for _, s := range srcs {
					_, d := s.WindowTelemetry()
					drops += d
				}
				return drops
			})
		}
	}
	// Per-type stage accounting (stage.<type>/<Stage>.tuples; the
	// lineage backing store).
	p.typeStage = make(map[receptor.Type]*stageCounters, len(p.typeOrder))
	for _, t := range p.typeOrder {
		sc := &stageCounters{polled: p.tel.Counter(fmt.Sprintf("poll.%s.tuples", t))}
		for _, stage := range []StageKind{StagePoint, StageSmooth, StageMerge, StageArbitrate} {
			sc.out[stage] = p.tel.Counter(fmt.Sprintf("stage.%s/%s.tuples", t, stage))
		}
		p.typeStage[t] = sc
	}
	p.virtOut = p.tel.Counter("stage.virtualize.tuples")
	// Receptor index → type, for polled accounting and lineage tagging.
	p.recTypes = make([]receptor.Type, len(p.dep.Receptors))
	for i, rec := range p.dep.Receptors {
		p.recTypes[i] = rec.Type()
		// Bounded channel receptors (hierarchical composition) surface
		// their buffer occupancy and eviction counter in the unified
		// snapshot — previously only readable on the channel itself.
		if ch, ok := rec.(channelTelemetry); ok {
			id := rec.ID()
			p.tel.GaugeFunc(fmt.Sprintf("receptor.%s.channel_pending", id), func() int64 {
				return int64(ch.Pending())
			})
			p.tel.GaugeFunc(fmt.Sprintf("receptor.%s.channel_dropped", id), func() int64 {
				return ch.Dropped()
			})
		}
	}
}

// channelTelemetry is satisfied by receptor.Channel (and any other
// buffered receptor that wants its backlog surfaced in telemetry).
type channelTelemetry interface {
	Pending() int
	Dropped() int64
}

// countStage accounts one flushed stage event. Called from flushEvents
// on the stepping goroutine; a single atomic-load gate keeps the
// disabled path free.
func (p *Processor) countStage(typ receptor.Type, stage StageKind, n int) {
	if !p.tel.Enabled() {
		return
	}
	if stage == StageVirtualize {
		p.virtOut.Add(int64(n))
		return
	}
	if sc := p.typeStage[typ]; sc != nil {
		sc.out[stage].Add(int64(n))
	}
}

// countPolled accounts one epoch's polled batches per receptor type.
func (p *Processor) countPolled(batches [][]stream.Tuple) {
	for i, ts := range batches {
		if len(ts) == 0 {
			continue
		}
		if sc := p.typeStage[p.recTypes[i]]; sc != nil {
			sc.polled.Add(int64(len(ts)))
		}
	}
}

// maxLineagePerEpoch bounds how many sampled readings one epoch may
// trace, so a hot sampler setting cannot balloon an epoch's work.
const maxLineagePerEpoch = 8

// lineageStep is the in-flight lineage state of one epoch: the tagged
// readings plus the pre-step counter values their spans diff against.
type lineageStep struct {
	now     time.Time
	tagged  []taggedReading
	before  map[receptor.Type]stageDelta
	virtPre int64
}

type taggedReading struct {
	receptor string
	typ      receptor.Type
	ts       time.Time
	value    string
}

// stageDelta is a point-in-time reading of one type's stage counters.
type stageDelta struct {
	polled, point, smooth, merge, arb int64
}

func (p *Processor) readStageCounters(t receptor.Type) stageDelta {
	sc := p.typeStage[t]
	if sc == nil {
		return stageDelta{}
	}
	return stageDelta{
		polled: sc.polled.Load(),
		point:  sc.out[StagePoint].Load(),
		smooth: sc.out[StageSmooth].Load(),
		merge:  sc.out[StageMerge].Load(),
		arb:    sc.out[StageArbitrate].Load(),
	}
}

// beginLineage samples this epoch's polled readings and snapshots the
// stage counters the spans will diff against. Returns nil when nothing
// was tagged.
func (p *Processor) beginLineage(now time.Time, batches [][]stream.Tuple) *lineageStep {
	var ls *lineageStep
	for i, ts := range batches {
		if len(ts) == 0 {
			continue
		}
		id := p.dep.Receptors[i].ID()
		for seq, tu := range ts {
			if !p.lin.Sample(id, tu.Ts, seq) {
				continue
			}
			if ls == nil {
				ls = &lineageStep{now: now, before: make(map[receptor.Type]stageDelta)}
			}
			if len(ls.tagged) >= maxLineagePerEpoch {
				break
			}
			typ := p.recTypes[i]
			ls.tagged = append(ls.tagged, taggedReading{
				receptor: id, typ: typ, ts: tu.Ts, value: tu.String(),
			})
			if _, ok := ls.before[typ]; !ok {
				ls.before[typ] = p.readStageCounters(typ)
			}
		}
	}
	if ls != nil {
		ls.virtPre = p.virtOut.Load()
	}
	return ls
}

// finishLineage turns the epoch's counter deltas into one five-span
// trace per tagged reading. Runs on the epoch-driving goroutine after
// the graph's step completes, so the deltas cover exactly this
// epoch's injection and punctuation.
func (p *Processor) finishLineage(ls *lineageStep) {
	virtDelta := p.virtOut.Load() - ls.virtPre
	for _, tr := range ls.tagged {
		pre := ls.before[tr.typ]
		post := p.readStageCounters(tr.typ)
		d := stageDelta{
			polled: post.polled - pre.polled,
			point:  post.point - pre.point,
			smooth: post.smooth - pre.smooth,
			merge:  post.merge - pre.merge,
			arb:    post.arb - pre.arb,
		}
		pl := p.pipelineFor(tr.typ)
		pointCfg := pl != nil && pl.Point != nil
		smoothCfg := pl != nil && pl.Smooth != nil
		mergeCfg := pl != nil && pl.Merge != nil
		arbCfg := pl != nil && pl.Arbitrate != nil
		_, virtBound := p.virtInputOf[tr.typ]

		// The stage chain's in/out: each stage's input is its
		// predecessor's released count. Stages not configured pass
		// their input through unchanged (the leg's StageSmooth tap
		// fires on the leg output either way, so the measured smooth
		// count is authoritative).
		pointOut := d.polled
		if pointCfg {
			pointOut = d.point
		}
		smoothOut := d.smooth
		mergeOut := smoothOut
		if mergeCfg {
			mergeOut = d.merge
		}
		arbOut := d.arb
		virtOut := int64(0)
		if virtBound {
			virtOut = virtDelta
		}

		trace := telemetry.Trace{
			Receptor: tr.receptor,
			Type:     string(tr.typ),
			Ts:       tr.ts,
			Epoch:    ls.now,
			Value:    tr.value,
			Spans: []telemetry.Span{
				{Stage: "Point", Epoch: ls.now, In: d.polled, Out: pointOut,
					Decision: telemetry.Decide(pointCfg, d.polled, pointOut)},
				{Stage: "Smooth", Epoch: ls.now, In: pointOut, Out: smoothOut,
					Decision: telemetry.Decide(smoothCfg, pointOut, smoothOut)},
				{Stage: "Merge", Epoch: ls.now, In: smoothOut, Out: mergeOut,
					Decision: telemetry.Decide(mergeCfg, smoothOut, mergeOut)},
				{Stage: "Arbitrate", Epoch: ls.now, In: mergeOut, Out: arbOut,
					Decision: telemetry.Decide(arbCfg, mergeOut, arbOut)},
				{Stage: "Virtualize", Epoch: ls.now, In: arbOut, Out: virtOut,
					Decision: telemetry.Decide(virtBound, arbOut, virtOut)},
			},
		}
		p.lin.Record(trace)
	}
}

// SetLogger installs a structured logger for runtime events (health-FSM
// transitions, poll deadline misses). Nil disables event logging (the
// default: telemetry counters still record).
func (p *Processor) SetLogger(l *slog.Logger) { p.logger = l }
