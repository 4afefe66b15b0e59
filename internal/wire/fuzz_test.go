package wire

import (
	"bytes"
	"testing"

	"esp/internal/stream"
)

// FuzzFrame throws arbitrary bytes at the full decode stack: the frame
// decoder, then every message decoder that matches the frame type. The
// invariants are (1) no panic on any input, (2) a frame that decodes
// re-encodes to the exact same bytes it was decoded from (the codec is
// canonical for framed bytes), (3) any message that decodes
// round-trips through its encoder and decodes equal, and
// (4) a publish payload that decodes carries tuple bytes equal to
// AppendTuples of what they decoded to — the property that lets the
// WAL journal those bytes verbatim. A frame that sets the reserved flags
// byte never decodes (invariant 2 pins that: every encoder writes zero).
// (5) The three tuple-list readers agree on every payload: a Decoder
// and SkipTuples accept exactly what DecodeTuples accepts, consume the
// same bytes, and the Decoder's tuples equal the allocating ones — also
// when the same Decoder has just decoded something else.
// The committed corpus holds a non-canonical bool byte and a padded
// varint, both of which must be rejected rather than decoded, and
// flagged frames next to flag-zeroed copies of them.
func FuzzFrame(f *testing.F) {
	// Well-formed frames of every type, flagged frames, and garbage.
	seed := func(fr Frame) { f.Add(AppendFrame(nil, fr)) }
	seedFlagged := func(fr Frame, flags uint8) { f.Add(withFlags(AppendFrame(nil, fr), flags)) }
	seed(Hello{Tenant: "lab", Role: "publish"}.Frame())
	seed(Create{Tenant: "lab", Spec: []byte(`{"epoch":"1s"}`)}.Frame())
	seed(Publish{Receptor: "m0", Seq: 1, Tuples: sampleTuples()}.Frame())
	seedFlagged(Publish{Receptor: "m0", Seq: 2, Tuples: sampleTuples()}.Frame(), 0x01)
	seed(Advance{Seq: 3, Now: 1_000_000_000}.Frame())
	seed(Subscribe{Tenant: "lab", Stream: "rfid"}.Frame())
	seed(Data{Stream: "rfid", Epoch: 2_000_000_000, Tuples: sampleTuples()}.Frame())
	seedFlagged(Data{Stream: "rfid", Epoch: 2, Tuples: nil}.Frame(), 0x80)
	seed(Ack{Seq: 4, Pending: 1, Cap: 2, Dropped: 3}.Frame())
	seed(ErrorMsg{Msg: "boom"}.Frame())
	seed(Drain{FinalEpoch: 5}.Frame())
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1})
	f.Add([]byte{magic0, magic1, 3, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{magic0}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if re := AppendFrame(nil, fr); !bytes.Equal(re, b[:n]) {
			t.Fatalf("frame re-encode differs:\nin  %x\nout %x", b[:n], re)
		}
		checkTupleReaders(t, fr.Payload)
		switch fr.Type {
		case TypeHello:
			if m, err := DecodeHello(fr); err == nil {
				reDecode(t, m.Frame(), m, func(f2 Frame) (any, error) { m2, e := DecodeHello(f2); return m2, e })
			}
		case TypeCreate:
			if _, err := DecodeCreate(fr); err != nil {
				return
			}
		case TypePublish:
			var dec Decoder
			dm, derr := dec.Publish(fr)
			if m, err := DecodePublish(fr); (err == nil) != (derr == nil) {
				t.Fatalf("DecodePublish err %v, Decoder.Publish err %v", err, derr)
			} else if err == nil {
				if dm.Receptor != m.Receptor || dm.Seq != m.Seq || dm.TraceID != m.TraceID ||
					!bytes.Equal(dm.Raw, m.Raw) || !sameTuples(dm.Tuples, m.Tuples) {
					t.Fatalf("Decoder.Publish %+v differs from DecodePublish %+v", dm, m)
				}
				if re := AppendTuples(nil, m.Tuples); !bytes.Equal(re, m.Raw) {
					t.Fatalf("publish tuple bytes are not canonical:\nin  %x\nout %x", m.Raw, re)
				}
				if re := m.Frame(); !bytes.Equal(re.Payload, fr.Payload) {
					// Payload may legally differ only by trailing junk the
					// tuple decoder ignored; re-decode must agree instead.
					m2, err := DecodePublish(re)
					if err != nil {
						t.Fatalf("publish re-decode: %v", err)
					}
					if m2.Receptor != m.Receptor || m2.Seq != m.Seq || len(m2.Tuples) != len(m.Tuples) {
						t.Fatalf("publish round trip drifted: %+v vs %+v", m, m2)
					}
				}
			}
		case TypeAdvance:
			if m, err := DecodeAdvance(fr); err == nil {
				if m2, err := DecodeAdvance(m.Frame()); err != nil || m2 != m {
					t.Fatalf("advance round trip: %+v vs %+v (%v)", m, m2, err)
				}
			}
		case TypeSubscribe:
			if m, err := DecodeSubscribe(fr); err == nil {
				if m2, err := DecodeSubscribe(m.Frame()); err != nil || m2 != m {
					t.Fatalf("subscribe round trip: %+v vs %+v (%v)", m, m2, err)
				}
			}
		case TypeData:
			_, _ = DecodeData(fr)
		case TypeAck:
			if m, err := DecodeAck(fr); err == nil {
				if m2, err := DecodeAck(m.Frame()); err != nil || m2 != m {
					t.Fatalf("ack round trip: %+v vs %+v (%v)", m, m2, err)
				}
			}
		case TypeError:
			_, _ = DecodeError(fr)
		case TypeDrain:
			_, _ = DecodeDrain(fr)
		}
	})
}

func reDecode(t *testing.T, f Frame, want any, dec func(Frame) (any, error)) {
	t.Helper()
	got, err := dec(f)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if got != want {
		t.Fatalf("round trip drifted: %+v vs %+v", want, got)
	}
}

// checkTupleReaders is FuzzFrame's invariant 5 over the tuple list at
// the front of b.
func checkTupleReaders(t *testing.T, b []byte) {
	t.Helper()
	want, n, err := DecodeTuples(b)
	var dec Decoder
	// Decode something first, so b's tuples land in used scratch.
	if _, _, err := dec.Tuples(AppendTuples(nil, sampleTuples())); err != nil {
		t.Fatal(err)
	}
	got, dn, derr := dec.Tuples(b)
	count, sn, serr := SkipTuples(b)
	if (derr == nil) != (err == nil) || (serr == nil) != (err == nil) {
		t.Fatalf("DecodeTuples err %v, Decoder.Tuples err %v, SkipTuples err %v", err, derr, serr)
	}
	if err != nil {
		return
	}
	if dn != n || sn != n || count != len(want) {
		t.Fatalf("consumed %d/%d/%d bytes, counted %d of %d tuples", n, dn, sn, count, len(want))
	}
	if !sameTuples(got, want) {
		t.Fatalf("Decoder tuples %v, want %v", got, want)
	}
}

// sameTuples compares tuple lists by their canonical encoding, so an
// empty list equals a nil one and a NaN equals itself bit for bit.
func sameTuples(a, b []stream.Tuple) bool {
	return bytes.Equal(AppendTuples(nil, a), AppendTuples(nil, b))
}
