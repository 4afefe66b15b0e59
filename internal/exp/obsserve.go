package exp

import (
	"fmt"
	"runtime"
	"time"

	"esp/internal/server"
	"esp/internal/telemetry"
	"esp/internal/wire"
)

// ObsServeConfig parameterises the serving-observability harness: the
// loadgen workload driven over live TCP with the tracing plane off,
// server-sampled, and fully on (client-originated traces on every
// frame).
type ObsServeConfig struct {
	// Load shapes the workload.
	Load LoadgenOptions
	// Publishers is the publisher connection count.
	Publishers int
	// SampleN is the sampled leg's 1-in-N epoch trace rate; it must stay
	// below the workload's epoch count, because the server samples at
	// advance time.
	SampleN int
	// Seed seeds trace-ID minting.
	Seed int64
}

// ObsServeLeg is one tracing mode's outcome.
type ObsServeLeg struct {
	Mode        string // off, sampled, full
	Spans       int    // server-side spans recorded
	Traces      int    // distinct trace IDs
	Fingerprint string
}

// ObsServeResult is what the three legs observed. RunObsServe returns
// it only when every gate held: the tracing-disabled path does not
// allocate, every leg's fingerprint matches (tracing never changes
// output), the sampled leg recorded spans, and the full leg carried one
// trace ID from a client publish through the server's spans to a
// delivered Data frame.
type ObsServeResult struct {
	Legs []ObsServeLeg
	// DisabledAllocsPerFrame is the heap allocations per simulated
	// frame on the tracing-disabled path (nil and disabled tracer
	// Sample + zero-ID Record), measured before any leg runs.
	DisabledAllocsPerFrame float64
}

// obsServeLegSpec is one leg's tracing wiring.
type obsServeLegSpec struct {
	mode          string
	serverSampleN int
	clientSampleN int // 0 = no client tracer
}

// obsServeLegOut is one leg run's raw outcome.
type obsServeLegOut struct {
	fp           *server.Fingerprint
	spans        int
	traces       int
	deliveredIDs map[uint64]bool
	serverTracer *telemetry.Tracer
	clientTracer *telemetry.Tracer
}

// runObsServeLeg drives the workload once over live TCP with the
// leg's tracing configuration and collects spans + the output
// fingerprint.
func runObsServeLeg(cfg ObsServeConfig, spec []byte, steps []Step, leg obsServeLegSpec) (*obsServeLegOut, error) {
	s, err := server.Listen(server.Config{
		Addr:         "127.0.0.1:0",
		TraceSampleN: leg.serverSampleN,
		TraceSeed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	go s.Serve() //nolint:errcheck
	defer shutdown(s)

	var clientTracer *telemetry.Tracer
	if leg.clientSampleN > 0 {
		clientTracer = telemetry.NewTracer(leg.clientSampleN, cfg.Seed+1)
	}

	ctl, err := server.Dial(s.Addr())
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	ctl.SetTracer(clientTracer)
	if err := ctl.Create("obsserve", spec); err != nil {
		return nil, err
	}
	subc, err := server.Dial(s.Addr())
	if err != nil {
		return nil, err
	}
	defer subc.Close()
	if err := subc.Subscribe("obsserve", "mote"); err != nil {
		return nil, err
	}

	out := &obsServeLegOut{
		fp:           server.NewFingerprint(),
		deliveredIDs: make(map[uint64]bool),
		serverTracer: s.Tracer(),
		clientTracer: clientTracer,
	}
	subErr := collect(out.fp, steps, func() (wire.Data, bool, error) {
		d, _, done, err := subc.Next()
		if err == nil && !done && d.TraceID != 0 {
			out.deliveredIDs[d.TraceID] = true
		}
		return d, done, err
	})

	pubs := make([]*server.Client, cfg.Publishers)
	for i := range pubs {
		c, err := server.Dial(s.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		c.SetTracer(clientTracer)
		if err := c.Hello("obsserve", "pub"); err != nil {
			return nil, err
		}
		pubs[i] = c
	}

	err = drive(steps, cfg.Publishers,
		func(now time.Time) error { return ctl.Advance(now) },
		func(w int, rec string, st Step) error {
			_, err := pubs[w].Publish(rec, st.Pubs[rec])
			return err
		}, nil)
	if err != nil {
		return nil, err
	}
	if err := <-subErr; err != nil {
		return nil, err
	}
	if tr := s.Tracer(); tr != nil {
		spans := tr.Spans()
		out.spans = len(spans)
		ids := make(map[telemetry.TraceID]bool)
		for _, sp := range spans {
			ids[sp.TraceID] = true
		}
		out.traces = len(ids)
	}
	return out, nil
}

// measureDisabledAllocs measures heap allocations per frame on the
// tracing-disabled hot path: the nil-tracer Sample a client performs
// per call and the disabled-tracer Sample + zero-ID Record branch the
// server performs per frame. Run before any server goroutines exist so
// the Mallocs delta is attributable.
func measureDisabledAllocs() float64 {
	var nilTr *telemetry.Tracer
	disabled := telemetry.NewTracer(1, 0)
	disabled.SetEnabled(false)
	const frames = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if _, ok := nilTr.Sample(); ok {
			panic("nil tracer sampled")
		}
		if _, ok := disabled.Sample(); ok {
			panic("disabled tracer sampled")
		}
		disabled.Record(telemetry.SpanRecord{})
		nilTr.Record(telemetry.SpanRecord{})
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / frames
}

// RunObsServe runs the three legs — tracing off, server-sampled, and
// fully traced — once each, and hard-fails on any gate violation.
func RunObsServe(cfg ObsServeConfig) (*ObsServeResult, error) {
	res := &ObsServeResult{DisabledAllocsPerFrame: measureDisabledAllocs()}
	if res.DisabledAllocsPerFrame > 0.01 {
		return nil, fmt.Errorf("obsserve: tracing-disabled path allocates (%.4f allocs/frame, want 0)",
			res.DisabledAllocsPerFrame)
	}

	spec := LoadgenSpec(cfg.Load)
	steps, _ := LoadgenWorkload(cfg.Load)
	legs := []obsServeLegSpec{
		{mode: "off"},
		{mode: "sampled", serverSampleN: cfg.SampleN},
		{mode: "full", serverSampleN: 1, clientSampleN: 1},
	}
	var full *obsServeLegOut
	for _, leg := range legs {
		out, err := runObsServeLeg(cfg, spec, steps, leg)
		if err != nil {
			return nil, fmt.Errorf("obsserve: %s leg: %w", leg.mode, err)
		}
		full = out // the last leg is the fully traced one
		res.Legs = append(res.Legs, ObsServeLeg{
			Mode:        leg.mode,
			Spans:       out.spans,
			Traces:      out.traces,
			Fingerprint: out.fp.String(),
		})
	}

	// Output identity: tracing must never change what is delivered.
	for _, l := range res.Legs[1:] {
		if l.Fingerprint != res.Legs[0].Fingerprint {
			return nil, fmt.Errorf("obsserve: fingerprints diverge across tracing modes: %+v", res.Legs)
		}
	}

	// Sampled leg: the server must actually have traced something.
	if res.Legs[1].Spans == 0 || res.Legs[1].Traces == 0 {
		return nil, fmt.Errorf("obsserve: sampled leg recorded no spans")
	}

	// Full leg: one client-minted trace ID must be observable at every
	// hop — client.publish span, server-side apply/step/deliver spans,
	// and the delivered Data frame.
	if !traceEndToEnd(full) {
		return nil, fmt.Errorf("obsserve: no trace ID observed end to end in the full leg")
	}
	return res, nil
}

// traceEndToEnd reports whether some delivered frame's trace ID has a
// client.publish span on the client side and apply, step, and deliver
// spans on the server side.
func traceEndToEnd(out *obsServeLegOut) bool {
	if out.clientTracer == nil || out.serverTracer == nil {
		return false
	}
	clientSpans := out.clientTracer.ByTrace()
	serverSpans := out.serverTracer.ByTrace()
	for raw := range out.deliveredIDs {
		id := telemetry.TraceID(raw)
		var hasPublish bool
		for _, sp := range clientSpans[id] {
			if sp.Name == "client.publish" {
				hasPublish = true
			}
		}
		if !hasPublish {
			continue
		}
		var hasApply, hasStep, hasDeliver bool
		for _, sp := range serverSpans[id] {
			switch sp.Name {
			case "server.apply":
				hasApply = true
			case "pipeline.step":
				hasStep = true
			case "subscriber.deliver":
				hasDeliver = true
			}
		}
		if hasApply && hasStep && hasDeliver {
			return true
		}
	}
	return false
}
