package main

import (
	"fmt"
	"time"

	"esp/internal/server"
	"esp/internal/wire"
)

// tenantName is the one tenant every run creates.
const tenantName = "bench"

// oracleResult is the in-process run of a workload: the same spec and
// steps through a server.Engine with no sockets and no WAL. Its
// fingerprint is what the served run and the recovered archive must
// hit; timed, it is the single-threaded baseline of the same job.
type oracleResult struct {
	Sum            uint64
	Frames, Tuples int
	// Emits marks the epochs (by boundary, UnixNano) that produce a Data
	// frame; the served run expects exactly these.
	Emits map[int64]bool
	// AdvanceUs is the duration of each timed epoch's Tenant.Advance —
	// poll, pipeline step and flush, no commit.
	AdvanceUs []float64
	// TuplesPerS is timed input tuples ÷ wall of the timed epochs.
	TuplesPerS float64
	// Registry counters of the run, for stage and fallback accounting.
	Counters map[string]int64
	// Data holds the timed epochs' output frames, for the wire replay.
	Data []wire.Data
}

func (o *oracleResult) matches(fp *server.Fingerprint) bool {
	return fp.Sum() == o.Sum && fp.Frames() == o.Frames && fp.Tuples() == o.Tuples
}

func (o *oracleResult) String() string {
	return fmt.Sprintf("%016x (%d frames, %d tuples)", o.Sum, o.Frames, o.Tuples)
}

// runOracle drives w through an in-process engine.
func runOracle(w *workload, rec *recorder) (*oracleResult, error) {
	eng := server.NewEngine(0)
	ten, err := eng.Create(tenantName, w.Spec)
	if err != nil {
		return nil, fmt.Errorf("oracle create: %w", err)
	}
	sub, err := ten.Subscribe(w.Stream)
	if err != nil {
		return nil, fmt.Errorf("oracle subscribe: %w", err)
	}
	res := &oracleResult{Emits: make(map[int64]bool)}
	var out []wire.Data // every epoch's output; fingerprinted after the timed loop
	var t0 time.Time
	timedFrom := 0
	for e, ep := range w.Epochs {
		if e == warmEpochs {
			t0, timedFrom = time.Now(), len(out)
		}
		for _, fs := range ep.Frames {
			for _, f := range fs {
				if _, err := ten.Publish(f.Receptor, f.Tuples); err != nil {
					return nil, fmt.Errorf("oracle publish: %w", err)
				}
			}
		}
		a0 := time.Now()
		if err := ten.Advance(ep.Now); err != nil {
			return nil, fmt.Errorf("oracle advance: %w", err)
		}
		a1 := time.Now()
		if e >= warmEpochs {
			res.AdvanceUs = append(res.AdvanceUs, float64(a1.Sub(a0))/1e3)
			rec.add(0, "engine.advance", laneMain, ep.Now.UnixNano(), a0, a1)
		}
		// Advance returns after the epoch's frames are queued, so the
		// subscription never backs up past one epoch.
		for len(sub.C()) > 0 {
			out = append(out, <-sub.C())
		}
	}
	wall := time.Since(t0)
	res.TuplesPerS = float64(w.inputTuples(warmEpochs, len(w.Epochs))) / wall.Seconds()
	res.Counters = ten.Registry().Snapshot().Counters
	if err := eng.DrainAll(); err != nil {
		return nil, fmt.Errorf("oracle drain: %w", err)
	}
	// A drain commits nothing here (every reading was polled), but fold
	// whatever it flushed so a surprise shows as a mismatch.
	for d := range sub.C() {
		out = append(out, d)
	}
	res.Data = out[timedFrom:]
	fp := server.NewFingerprint()
	for _, d := range out {
		res.Emits[d.Epoch] = true
		fp.Add(d)
	}
	res.Sum, res.Frames, res.Tuples = fp.Sum(), fp.Frames(), fp.Tuples()
	return res, nil
}
