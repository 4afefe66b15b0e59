package core

import (
	"sync"
	"testing"
	"time"
)

// TestStatsConcurrentWithRun polls telemetry snapshots and NodeStats
// from a second goroutine while a run is in flight — the served shape,
// where a metrics scrape reads the counters while the tenant steps. The
// counters are atomics for this; run with -race, as the Makefile check
// target does, to enforce it.
func TestStatsConcurrentWithRun(t *testing.T) {
	dep := shelfDeployment(t)
	p, err := NewProcessor(dep)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableTelemetry()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, st := range p.NodeStats() {
				if st.TuplesIn < 0 || st.Advances < 0 {
					t.Error("negative counter in concurrent NodeStats snapshot")
					return
				}
			}
			for _, n := range p.Telemetry().Snapshot().Counters {
				if n < 0 {
					t.Error("negative counter in concurrent stats snapshot")
					return
				}
			}
		}
	}()

	start := time.Unix(0, 0).UTC()
	if err := p.Run(start, start.Add(20*time.Second)); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	// The run is quiesced: the final snapshots must agree with a
	// sequential reading of the pipeline's activity.
	final := p.Telemetry().Snapshot().Counters
	if final["stage.rfid/Smooth.tuples"] == 0 {
		t.Fatalf("final stats snapshot saw no Smooth output: %v", final)
	}
	var advanced bool
	for _, st := range p.NodeStats() {
		if st.Advances > 0 {
			advanced = true
		}
	}
	if !advanced {
		t.Fatal("no node recorded an advance")
	}
}
