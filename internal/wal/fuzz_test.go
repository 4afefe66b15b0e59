package wal

import (
	"bytes"
	"testing"
	"time"

	"esp/internal/stream"
	"esp/internal/wire"
)

// FuzzSegment throws arbitrary bytes at the record decoder — the same
// code path recovery scans a crashed journal with, so it must never
// panic and never mis-frame. Invariants, mirroring FuzzFrame:
//
//  1. no panic on any input;
//  2. a record that decodes re-encodes to the exact bytes it was
//     decoded from — the decoders accept only canonical bytes (no
//     padded varints, no bool byte other than 0/1), which is what makes
//     a journal written from a publish frame's raw tuple bytes
//     identical to one written by re-encoding the decoded tuples;
//  3. the raw record parser the scans use accepts exactly the records
//     DecodeRecord accepts, consuming the same bytes, with the same
//     kind, name, epoch and tuple count;
//  4. the journal scan over a segment holding b keeps exactly the
//     publishes a DecodeRecord walk of b finds before the scan stops,
//     and their raw bytes decode to the walk's tuples — the scan
//     validates without decoding, and replay decodes what it kept.
func FuzzSegment(f *testing.F) {
	seed := func(r Record) {
		b, err := AppendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	ts := func(sec int64, vals ...stream.Value) stream.Tuple {
		return stream.Tuple{Ts: time.Unix(sec, 0).UTC(), Values: vals}
	}
	seed(Record{Kind: KindPublish, Receptor: "reader0", Tuples: []stream.Tuple{
		ts(1, stream.String("tag-1"), stream.Bool(true)),
		ts(2, stream.String("tag-2"), stream.Bool(false)),
	}})
	seed(Record{Kind: KindPublish, Receptor: "m0", Tuples: []stream.Tuple{
		ts(3, stream.String("m0"), stream.Float(20.5)),
		ts(4, stream.Value{}, stream.Int(-7), stream.Time(time.Unix(9, 0).UTC())),
	}})
	seed(Record{Kind: KindPublish})
	seed(Record{Kind: KindCommit, Epoch: time.Unix(5, 0).UTC()})
	seed(Record{Kind: KindCommit, Epoch: time.Unix(0, -1).UTC()})
	seed(Record{Kind: KindOutput, Stream: "mote", Epoch: time.Unix(5, 0).UTC(), Tuples: []stream.Tuple{
		ts(4, stream.String("m0"), stream.Float(20.75)),
	}})
	seed(Record{Kind: KindOutput, Stream: "virtualize", Epoch: time.Unix(6, 0).UTC()})
	// Hostile shapes: torn header, huge length, bad crc, unknown kind.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	f.Add(appendFrame(nil, []byte{0x7f, 1, 2, 3}))
	f.Add(segHeader[:])

	// Several records back to back: a scan walks past the first.
	var multi []byte
	for _, r := range []Record{
		{Kind: KindPublish, Receptor: "m0", Tuples: []stream.Tuple{ts(1, stream.Float(1))}},
		{Kind: KindCommit, Epoch: time.Unix(1, 0).UTC()},
		{Kind: KindPublish, Receptor: "m1", Tuples: []stream.Tuple{ts(2, stream.String("x"), stream.Int(2))}},
	} {
		multi, _ = AppendRecord(multi, r)
	}
	f.Add(multi)

	f.Fuzz(func(t *testing.T, b []byte) {
		checkJournalScan(t, b)
		r, n, err := DecodeRecord(b)
		raw, rn, rerr := parseRecord(b)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeRecord err %v, parseRecord err %v", err, rerr)
		}
		if err != nil {
			return
		}
		name := r.Receptor + r.Stream
		if rn != n || raw.kind != r.Kind || string(raw.name) != name || !raw.epoch.Equal(r.Epoch) || raw.count != len(r.Tuples) {
			t.Fatalf("parseRecord %+v (%d B) disagrees with DecodeRecord %+v (%d B)", raw, rn, r, n)
		}
		re, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("record is not canonical:\nin  %x\nout %x", b[:n], re)
		}
	})
}

// checkJournalScan is FuzzSegment's invariant 4.
func checkJournalScan(t *testing.T, b []byte) {
	t.Helper()
	var want []Record // the walk's publishes, up to where the scan stops
	off := 0
	for off < len(b) {
		r, n, err := DecodeRecord(b[off:])
		if err != nil || r.Kind == KindOutput {
			break
		}
		if r.Kind == KindPublish {
			want = append(want, r)
		}
		off += n
	}
	js := &journalScan{}
	js.scanSegment(append(segHeader[:], b...), "wal-fuzz.seg", 1)
	js.finish()
	var got []Publish
	for _, ep := range js.rec.Epochs {
		got = append(got, ep.Publishes...)
	}
	got = append(got, js.rec.Tail...)
	// The scan also stops at a non-monotonic commit, which the walk does
	// not model: it keeps a prefix of the walk's publishes then, and all
	// of them otherwise.
	if len(got) > len(want) || (js.rec.Corruption == "" && len(got) != len(want)) {
		t.Fatalf("scan kept %d publishes (corruption %q), the walk found %d", len(got), js.rec.Corruption, len(want))
	}
	for i, p := range got {
		ts, _, err := wire.DecodeTuples(p.Raw)
		if err != nil {
			t.Fatalf("publish %d: kept raw bytes do not decode: %v", i, err)
		}
		if p.Receptor != want[i].Receptor || p.Count != len(want[i].Tuples) ||
			!bytes.Equal(wire.AppendTuples(nil, ts), wire.AppendTuples(nil, want[i].Tuples)) {
			t.Fatalf("publish %d: scan kept %q %d tuples, the walk decoded %q %v", i, p.Receptor, p.Count, want[i].Receptor, want[i].Tuples)
		}
	}
	if off < len(b) && js.rec.Corruption == "" {
		t.Fatalf("the walk stopped at byte %d of %d, the scan reported no corruption", off, len(b))
	}
}
