package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"esp/internal/stream"
)

// admissionShapes are the publish shapes the schema check judges
// against testSpec's readers (tag_id:string, checksum_ok:bool).
var admissionShapes = []struct {
	name string
	vals []stream.Value
	ok   bool
}{
	{"short arity", []stream.Value{stream.String("C")}, false},
	{"long arity", []stream.Value{stream.String("C"), stream.Bool(true), stream.Int(1)}, false},
	{"wrong kind", []stream.Value{stream.Int(7), stream.Bool(true)}, false},
	{"null in every column", []stream.Value{stream.Null(), stream.Null()}, true},
}

// admissionScript publishes epochs from..to of a small shelf workload;
// epoch 2+i also carries a frame holding a valid reading and shape i.
// check sees each shaped frame's publish error.
func admissionScript(t *testing.T, publish func(rec string, ts ...stream.Tuple) error, advance func(time.Time) error,
	from, to int, check func(i int, err error)) {
	t.Helper()
	for e := from; e <= to; e++ {
		sec := float64(e - 1)
		if err := publish("reader0", read(sec+0.2, "A", true), read(sec+0.6, "B", e%3 != 0)); err != nil {
			t.Fatal(err)
		}
		if err := publish("reader1", read(sec+0.4, "A", e%2 == 0)); err != nil {
			t.Fatal(err)
		}
		if i := e - 2; i >= 0 && i < len(admissionShapes) {
			err := publish("reader1", read(sec+0.3, "C", true), stream.Tuple{Ts: at(sec + 0.5), Values: admissionShapes[i].vals})
			check(i, err)
		}
		if err := advance(at(float64(e))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerSchemaAdmission: over TCP, a publish frame with a tuple that
// does not match its receptor's schema — short arity, long arity, wrong
// kind — is refused with a deterministic ServerError before it is
// journalled (wal_publish_records does not move) and counted in
// serve_rejected_tuples; NULL in every column is accepted. After a
// crash, Recover replays the journal and the recovered tenant continues
// the stream exactly as an uninterrupted in-process run does.
func TestServerSchemaAdmission(t *testing.T) {
	const crashAt, total = 6, 10
	spec := testSpec("")

	// Reference: uninterrupted, in-process, no WAL. It refuses the same
	// frames.
	ref, err := NewEngine(0).Create("shelf", spec)
	if err != nil {
		t.Fatal(err)
	}
	refSub, err := ref.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	refFP := NewFingerprint()
	admissionScript(t, func(rec string, ts ...stream.Tuple) error {
		_, err := ref.Publish(rec, ts)
		return err
	}, func(now time.Time) error {
		err := ref.Advance(now)
		collect(refFP, refSub)
		return err
	}, 1, total, func(int, error) {})

	// Live: over TCP with the WAL on, crashed after epoch crashAt.
	dir := t.TempDir()
	s, err := Listen(Config{Addr: "127.0.0.1:0", WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	c := dial(t, s)
	if err := c.Create("shelf", spec); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Engine().Tenant("shelf")
	sub, err := live.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	counters := func() (records, rejected int64) {
		snap := live.Registry().Snapshot()
		return snap.Counters["wal_publish_records"], snap.Counters["serve_rejected_tuples"]
	}
	gotFP := NewFingerprint()
	var records, rejected int64
	admissionScript(t, func(rec string, ts ...stream.Tuple) error {
		records, rejected = counters()
		_, err := c.Publish(rec, ts)
		return err
	}, func(now time.Time) error {
		err := c.Advance(now)
		collect(gotFP, sub)
		return err
	}, 1, crashAt, func(i int, err error) {
		shape := admissionShapes[i]
		r, rj := counters()
		var se *ServerError
		switch {
		case shape.ok && err != nil:
			t.Errorf("%s: refused: %v", shape.name, err)
		case shape.ok && (r != records+1 || rj != rejected):
			t.Errorf("%s: accepted, but publish records %d -> %d, rejected %d -> %d", shape.name, records, r, rejected, rj)
		case !shape.ok && !errors.As(err, &se):
			t.Errorf("%s: publish error %v, want a ServerError", shape.name, err)
		case !shape.ok && (r != records || rj != rejected+2):
			t.Errorf("%s: refused, but publish records %d -> %d, rejected tuples %d -> %d (want +0, +2)",
				shape.name, records, r, rejected, rj)
		}
	})
	live.Crash()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)

	e2 := NewEngine(0)
	e2.SetWALDir(dir)
	if _, err := e2.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	t2, ok := e2.Tenant("shelf")
	if !ok {
		t.Fatal("tenant not recovered")
	}
	defer t2.Drain() //nolint:errcheck
	if n := t2.Registry().Snapshot().Counters["serve_rejected_tuples"]; n != 0 {
		t.Errorf("replay skipped %d tuples of a journal the checked server wrote", n)
	}
	sub2, err := t2.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	admissionScript(t, func(rec string, ts ...stream.Tuple) error {
		_, err := t2.Publish(rec, ts)
		return err
	}, func(now time.Time) error {
		err := t2.Advance(now)
		collect(gotFP, sub2)
		return err
	}, crashAt+1, total, func(int, error) {})

	if refFP.Frames() == 0 {
		t.Fatal("reference run produced no output")
	}
	if gotFP.Sum() != refFP.Sum() || gotFP.Frames() != refFP.Frames() || gotFP.Tuples() != refFP.Tuples() {
		t.Fatalf("served + recovered output %v differs from the reference %v", gotFP, refFP)
	}
}

// TestReplaySkipsUncheckedRecords: a journal written before admission
// was checked may hold a publish record whose tuples do not match the
// schema. Boot replay skips it and counts its tuples as rejected, where
// it used to fail the tenant's replay and every later boot, and the
// recovered tenant continues as if the record had been refused.
func TestReplaySkipsUncheckedRecords(t *testing.T) {
	const crashAt, total = 4, 8
	spec := testSpec("")
	script := func(ten *Tenant, from, to int, fp *Fingerprint, sub *Subscription) {
		t.Helper()
		for e := from; e <= to; e++ {
			sec := float64(e - 1)
			pub(t, ten, "reader0", read(sec+0.2, "A", true), read(sec+0.6, "B", e%3 != 0))
			pub(t, ten, "reader1", read(sec+0.4, "A", e%2 == 0))
			if err := ten.Advance(at(float64(e))); err != nil {
				t.Fatal(err)
			}
			collect(fp, sub)
		}
	}
	ref, err := NewEngine(0).Create("shelf", spec)
	if err != nil {
		t.Fatal(err)
	}
	refSub, _ := ref.Subscribe("rfid")
	refFP := NewFingerprint()
	script(ref, 1, total, refFP, refSub)

	dir := t.TempDir()
	e1 := NewEngine(0)
	e1.SetWALDir(dir)
	t1, err := e1.Create("shelf", spec)
	if err != nil {
		t.Fatal(err)
	}
	sub1, _ := t1.Subscribe("rfid")
	gotFP := NewFingerprint()
	script(t1, 1, crashAt-1, gotFP, sub1)
	// What an unchecked server journalled: a wrong-kind and a short
	// tuple, never appended to the channel here, so the live output is
	// that of a server which refused them.
	poison := []stream.Tuple{
		{Ts: at(crashAt - 0.5), Values: []stream.Value{stream.Int(7), stream.Bool(true)}},
		{Ts: at(crashAt - 0.5), Values: []stream.Value{stream.String("D")}},
	}
	if err := t1.jl.Journal("reader0", poison, nil); err != nil {
		t.Fatal(err)
	}
	script(t1, crashAt, crashAt, gotFP, sub1)
	t1.Crash()

	e2 := NewEngine(0)
	e2.SetWALDir(dir)
	if _, err := e2.Recover(); err != nil {
		t.Fatalf("recover over a journal with an unchecked record: %v", err)
	}
	t2, _ := e2.Tenant("shelf")
	defer t2.Drain() //nolint:errcheck
	snap := t2.Registry().Snapshot()
	if n := snap.Counters["serve_rejected_tuples"]; n != int64(len(poison)) {
		t.Errorf("replay counted %d rejected tuples, want %d", n, len(poison))
	}
	if !t2.Last().Equal(at(crashAt)) {
		t.Fatalf("recovered clock at %v, want %v", t2.Last(), at(crashAt))
	}
	sub2, _ := t2.Subscribe("rfid")
	script(t2, crashAt+1, total, gotFP, sub2)
	if gotFP.Sum() != refFP.Sum() || gotFP.Frames() != refFP.Frames() || gotFP.Tuples() != refFP.Tuples() {
		t.Fatalf("recovered output %v differs from the reference %v", gotFP, refFP)
	}
}
