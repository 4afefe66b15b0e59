package exp

import (
	"testing"
	"time"
)

// smokeNetChaosConfig is a scaled-down netchaos run: a small mote
// population and few epochs, but the full fault schedule shape (one
// fault per boundary) and every acceptance gate active.
func smokeNetChaosConfig() NetChaosConfig {
	cfg := DefaultNetChaosConfig()
	cfg.Load.Motes = 64
	cfg.Load.GroupSize = 8
	cfg.Load.Epochs = 10
	cfg.Publishers = 4
	cfg.CallTimeout = 300 * time.Millisecond
	cfg.StallFor = 100 * time.Millisecond
	cfg.PartitionFor = 80 * time.Millisecond
	return cfg
}

// TestNetChaosSmoke runs the resilience harness end to end: RunNetChaos
// itself enforces the gates (byte-identical fingerprint vs the
// fault-free reference leg, exactly-once tuple application, fault
// counters non-zero), so the test checks that the result agrees and
// that the schedule injected one fault per boundary.
func TestNetChaosSmoke(t *testing.T) {
	cfg := smokeNetChaosConfig()
	res, err := RunNetChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FingerprintChaos != res.FingerprintClean || res.TuplesApplied != int64(res.TuplesPublished) {
		t.Fatalf("gates passed RunNetChaos but result disagrees: %+v", res)
	}
	total := 0
	for _, n := range res.Faults {
		total += n
	}
	if total != cfg.Load.Epochs {
		t.Fatalf("injected %d faults over %d boundaries, want one per boundary", total, cfg.Load.Epochs)
	}
	if res.LinksKilled == 0 || res.Reconnects == 0 {
		t.Fatalf("faults did not bite: killed=%d reconnects=%d", res.LinksKilled, res.Reconnects)
	}
}
