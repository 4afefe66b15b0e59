package wal

import (
	"bytes"
	"testing"
	"time"

	"esp/internal/stream"
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
//     identical to one written by re-encoding the decoded tuples.
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

	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := DecodeRecord(b)
		if err != nil {
			return
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
