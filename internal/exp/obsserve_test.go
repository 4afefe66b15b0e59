package exp

import "testing"

// TestObsServeSmoke runs the serving-observability harness at toy
// scale: the three legs and every gate (allocation-free disabled path,
// fingerprint identity across tracing modes, sampled spans present,
// one trace ID end to end).
func TestObsServeSmoke(t *testing.T) {
	cfg := ObsServeConfig{
		Load: LoadgenOptions{
			Motes:      50,
			GroupSize:  5,
			Epochs:     6,
			Epoch:      DefaultLoadgenOptions().Epoch,
			Delivery:   0.9,
			FaultEvery: 10,
			Seed:       1,
		},
		Publishers: 4,
		SampleN:    4,
		Seed:       7,
	}
	res, err := RunObsServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Legs) != 3 {
		t.Fatalf("legs = %d, want 3", len(res.Legs))
	}
	off, sampled, full := res.Legs[0], res.Legs[1], res.Legs[2]
	if sampled.Fingerprint != off.Fingerprint || full.Fingerprint != off.Fingerprint {
		t.Errorf("fingerprints diverged across tracing modes: %+v", res.Legs)
	}
	if res.DisabledAllocsPerFrame > 0.01 {
		t.Errorf("disabled path allocates: %.4f allocs/frame", res.DisabledAllocsPerFrame)
	}
	if off.Spans != 0 {
		t.Errorf("off leg recorded spans: %+v", off)
	}
	if sampled.Spans == 0 {
		t.Errorf("sampled leg recorded no spans: %+v", sampled)
	}
	if full.Spans <= sampled.Spans {
		t.Errorf("full leg (%d spans) should out-trace sampled leg (%d spans)", full.Spans, sampled.Spans)
	}
}
