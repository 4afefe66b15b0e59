package core

import (
	"fmt"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

// genReceptor synthesises a fixed number of readings per poll — a
// steady-state load source for benchmarking the epoch loop.
type genReceptor struct {
	id  string
	per int
	seq int
}

func (g *genReceptor) ID() string             { return g.id }
func (g *genReceptor) Type() receptor.Type    { return receptor.TypeRFID }
func (g *genReceptor) Schema() *stream.Schema { return rfidRaw }

func (g *genReceptor) Poll(now time.Time) []stream.Tuple {
	out := make([]stream.Tuple, g.per)
	for i := range out {
		g.seq++
		tag := fmt.Sprintf("tag%02d", g.seq%8)
		out[i] = stream.NewTuple(now.Add(-time.Millisecond*time.Duration(i+1)),
			stream.String(tag), stream.Bool(g.seq%16 != 0))
	}
	return out
}

// benchmarkStep measures one epoch of the RFID pipeline at 32 readings
// per poll under the given telemetry mode. The off/on/lineage trio
// quantifies the instrumentation overhead.
func benchmarkStep(b *testing.B, mode string) {
	rec := &genReceptor{id: "r0", per: 32}
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{rec},
		Groups:    singleGroup("shelf0", receptor.TypeRFID, "r0"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeRFID: {
				Type:      receptor.TypeRFID,
				Point:     PointChecksum("checksum_ok"),
				Smooth:    SmoothTagCount(2 * time.Second),
				Arbitrate: ArbitrateMaxSum("tag_id", "n"),
			},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	switch mode {
	case "on":
		p.EnableTelemetry()
	case "lineage":
		p.EnableLineage(8, 1)
	}
	now := at(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Step(now); err != nil {
			b.Fatal(err)
		}
		now = now.Add(time.Second)
	}
}

func BenchmarkStepTelemetryOff(b *testing.B)     { benchmarkStep(b, "off") }
func BenchmarkStepTelemetryOn(b *testing.B)      { benchmarkStep(b, "on") }
func BenchmarkStepTelemetryLineage(b *testing.B) { benchmarkStep(b, "lineage") }
