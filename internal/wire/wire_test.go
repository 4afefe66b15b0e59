package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"esp/internal/stream"
)

func sampleTuples() []stream.Tuple {
	return []stream.Tuple{
		{Ts: time.Unix(3, 141592653).UTC(), Values: []stream.Value{
			stream.String("r0"), stream.String("shelf"), stream.Int(-42),
			stream.Float(math.Pi), stream.Bool(true), stream.Null(),
			stream.Time(time.Unix(99, 7).UTC()),
		}},
		{Ts: time.Unix(4, 0).UTC(), Values: nil},
		{Ts: time.Unix(5, 5).UTC(), Values: []stream.Value{stream.String("")}},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TypeHello, Payload: []byte("x")},
		{Type: TypeData, Payload: []byte("rfid")},
		{Type: TypeDrain, Payload: nil},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("trailing read = %v, want EOF", err)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, _, err := DecodeFrame([]byte{0xde, 0xad, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	huge := AppendFrame(nil, Frame{Type: TypeData})
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge length: %v", err)
	}
	ok := AppendFrame(nil, Frame{Type: TypeData, Payload: []byte("hello")})
	if _, _, err := DecodeFrame(ok[:len(ok)-1]); err != ErrShort {
		t.Errorf("truncated: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(ok[:len(ok)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated stream: %v", err)
	}
}

// TestFrameErrorDiagnostics pins the decoder's error messages to carry
// the offending frame's type byte and announced length — what makes a
// chaos-proxy truncation diagnosable from the error alone.
func TestFrameErrorDiagnostics(t *testing.T) {
	huge := AppendFrame(nil, Frame{Type: TypePublish})
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	_, _, err := DecodeFrame(huge)
	for _, want := range []string{"publish", "0x03", "4294967295"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("oversize error %q missing %q", err, want)
		}
	}
	ok := AppendFrame(nil, Frame{Type: TypeData, Payload: []byte("hello")})
	_, rerr := ReadFrame(bytes.NewReader(ok[:len(ok)-2]))
	for _, want := range []string{"data", "0x06", "want 5 bytes"} {
		if rerr == nil || !strings.Contains(rerr.Error(), want) {
			t.Errorf("truncation error %q missing %q", rerr, want)
		}
	}
	_, merr := ReadFrame(bytes.NewReader([]byte{0xde, 0xad, 0, 0, 0, 0, 0, 0}))
	if merr == nil || !strings.Contains(merr.Error(), "0xde") {
		t.Errorf("magic error %q missing offending byte", merr)
	}
}

// TestFrameRejectsFlags pins the reserved flags byte: a frame that sets
// any flag bit fails both frame decoders with ErrFlags, and the error
// names the frame type and the offending byte.
func TestFrameRejectsFlags(t *testing.T) {
	pub := Publish{Receptor: "m0", Seq: 1, Tuples: sampleTuples()}.Frame()
	for _, tc := range []struct {
		flags uint8
		want  string
	}{
		{0x01, "0x01"}, // the retired JSON bit
		{0x30, "0x30"},
		{0x80, "0x80"},
		{0xff, "0xff"},
	} {
		b := withFlags(AppendFrame(nil, pub), tc.flags)
		_, _, derr := DecodeFrame(b)
		var buf []byte
		_, rerr := ReadFrameBuf(bytes.NewReader(b), &buf)
		for name, err := range map[string]error{"DecodeFrame": derr, "ReadFrameBuf": rerr} {
			if !errors.Is(err, ErrFlags) {
				t.Errorf("flags %#02x: %s error = %v, want ErrFlags", tc.flags, name, err)
				continue
			}
			for _, w := range []string{"publish", tc.want} {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("flags %#02x: %s error %q missing %q", tc.flags, name, err, w)
				}
			}
		}
	}
}

// withFlags sets an encoded frame's reserved flags byte.
func withFlags(frame []byte, flags uint8) []byte {
	frame[3] = flags
	return frame
}

func TestTupleRoundTrip(t *testing.T) {
	want := sampleTuples()
	enc := AppendTuples(nil, want)
	got, n, err := DecodeTuples(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %v\nwant %v", got, want)
	}
	// Canonical: re-encoding the decoded tuples is byte-identical.
	if re := AppendTuples(nil, got); !bytes.Equal(re, enc) {
		t.Fatal("re-encoding is not canonical")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	pub := Publish{Receptor: "mote-17", Seq: 9, Tuples: sampleTuples()}
	if got, err := DecodePublish(pub.Frame()); err != nil {
		t.Fatal(err)
	} else if got.Receptor != pub.Receptor || got.Seq != pub.Seq || !reflect.DeepEqual(got.Tuples, pub.Tuples) {
		t.Fatalf("publish mismatch: %+v", got)
	}

	data := Data{Stream: "rfid", Epoch: 123456789, Tuples: sampleTuples()}
	if got, err := DecodeData(data.Frame()); err != nil {
		t.Fatal(err)
	} else if got.Stream != data.Stream || got.Epoch != data.Epoch || !reflect.DeepEqual(got.Tuples, data.Tuples) {
		t.Fatalf("data mismatch: %+v", got)
	}

	hello := Hello{Tenant: "lab", Role: "publish"}
	if got, err := DecodeHello(hello.Frame()); err != nil || got != hello {
		t.Fatalf("hello: %+v, %v", got, err)
	}
	create := Create{Tenant: "lab", Spec: []byte(`{"epoch":"1s"}`)}
	if got, err := DecodeCreate(create.Frame()); err != nil || got.Tenant != create.Tenant || !bytes.Equal(got.Spec, create.Spec) {
		t.Fatalf("create: %+v, %v", got, err)
	}
	adv := Advance{Seq: 3, Now: -62135596800000000}
	if got, err := DecodeAdvance(adv.Frame()); err != nil || got != adv {
		t.Fatalf("advance: %+v, %v", got, err)
	}
	sub := Subscribe{Tenant: "lab", Stream: "virtualize"}
	if got, err := DecodeSubscribe(sub.Frame()); err != nil || got != sub {
		t.Fatalf("subscribe: %+v, %v", got, err)
	}
	ack := Ack{Seq: 7, Pending: 12, Cap: 1024, Dropped: 3}
	if got, err := DecodeAck(ack.Frame()); err != nil || got != ack {
		t.Fatalf("ack: %+v, %v", got, err)
	}
	em := ErrorMsg{Msg: "no such tenant"}
	if got, err := DecodeError(em.Frame()); err != nil || got != em {
		t.Fatalf("error: %+v, %v", got, err)
	}
	dr := Drain{FinalEpoch: 42}
	if got, err := DecodeDrain(dr.Frame()); err != nil || got != dr {
		t.Fatalf("drain: %+v, %v", got, err)
	}
}

// TestSessionFieldRoundTrips covers the resume extensions: session
// hellos, resume subscribes, and epoch-carrying acks must round-trip,
// and the session-less forms must stay byte-compatible with the
// pre-session protocol.
func TestSessionFieldRoundTrips(t *testing.T) {
	hello := Hello{Tenant: "lab", Role: "pub", Session: "pub-7", ResumeEpoch: 123456789}
	if got, err := DecodeHello(hello.Frame()); err != nil || got != hello {
		t.Fatalf("session hello: %+v, %v", got, err)
	}
	// A session-less hello encodes exactly as the pre-session protocol
	// did: two strings, nothing trailing.
	plain := Hello{Tenant: "lab", Role: "pub"}
	want := appendString(nil, "lab")
	want = appendString(want, "pub")
	if !bytes.Equal(plain.Frame().Payload, want) {
		t.Errorf("plain hello payload = %x, want pre-session %x", plain.Frame().Payload, want)
	}

	sub := Subscribe{Tenant: "lab", Stream: "mote", FromEpoch: 42}
	if got, err := DecodeSubscribe(sub.Frame()); err != nil || got != sub {
		t.Fatalf("resume subscribe: %+v, %v", got, err)
	}

	ack := Ack{Seq: 9, Pending: 1, Cap: 2, Dropped: 3, Epoch: 77}
	if got, err := DecodeAck(ack.Frame()); err != nil || got != ack {
		t.Fatalf("epoch ack: %+v, %v", got, err)
	}
	// Truncated session suffix is an error, not a silent fallback.
	f := hello.Frame()
	if _, err := DecodeHello(Frame{Type: TypeHello, Payload: f.Payload[:len(f.Payload)-3]}); err == nil {
		t.Error("truncated session hello decoded")
	}
}

// TestDecodeTuplesHostileCounts pins the allocation guards: length and
// count fields larger than the buffer must error, not allocate.
func TestDecodeTuplesHostileCounts(t *testing.T) {
	// Tuple count 2^60 with no data behind it.
	hostile := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}
	if _, _, err := DecodeTuples(hostile); err == nil {
		t.Fatal("hostile tuple count decoded")
	}
	// String length past the end of the buffer.
	enc := AppendTuple(nil, stream.Tuple{Ts: time.Unix(0, 0), Values: []stream.Value{stream.String("abcdef")}})
	if _, _, err := DecodeTuples(append([]byte{1}, enc[:len(enc)-3]...)); err == nil {
		t.Fatal("truncated string decoded")
	}
}

// TestDecodeRejectsNonCanonical pins strict decoding: a bool byte other
// than 0/1 and a padded varint (tuple count, value count, string
// length) decode to tuples whose canonical encoding differs from the
// input, so they must be errors — otherwise the WAL's verbatim journal
// would not be byte-identical to a re-encoding.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	ts := []stream.Tuple{{Ts: time.Unix(1, 0).UTC(), Values: []stream.Value{stream.Bool(true), stream.String("ab")}}}
	enc := AppendTuples(nil, ts)
	// enc = count(1) | ts(8) | nvals(1) | kind bool, 1 | kind string, len 2, "ab"
	boolAt, countAt, nvalsAt, strlenAt := 11, 0, 9, 13
	if enc[boolAt] != 1 || enc[countAt] != 1 || enc[nvalsAt] != 2 || enc[strlenAt] != 2 {
		t.Fatalf("unexpected layout %x", enc)
	}
	if _, _, err := DecodeTuples(enc); err != nil {
		t.Fatalf("canonical bytes rejected: %v", err)
	}
	badBool := bytes.Clone(enc)
	badBool[boolAt] = 2
	pad := func(at int) []byte { // re-encode the one-byte varint at `at` in two bytes
		b := append(bytes.Clone(enc[:at]), enc[at]|0x80, 0)
		return append(b, enc[at+1:]...)
	}
	for name, b := range map[string][]byte{
		"bool byte 2":       badBool,
		"padded count":      pad(countAt),
		"padded nvals":      pad(nvalsAt),
		"padded string len": pad(strlenAt),
	} {
		_, _, err := DecodeTuples(b)
		if !errors.Is(err, ErrNonCanonical) || !strings.HasPrefix(err.Error(), "wire: ") {
			t.Errorf("%s: err = %v, want a wire: ErrNonCanonical", name, err)
		}
	}
	// A publish carrying them is refused, not journalled as re-encoded.
	p := appendString(nil, "m0")
	p = binary.BigEndian.AppendUint64(p, 1)
	if _, err := DecodePublish(Frame{Type: TypePublish, Payload: append(p, pad(countAt)...)}); !errors.Is(err, ErrNonCanonical) {
		t.Errorf("publish with padded count: err = %v", err)
	}
	// The publish's Raw is exactly its tuple bytes.
	m, err := DecodePublish(Frame{Type: TypePublish, Payload: append(p, enc...)})
	if err != nil || !bytes.Equal(m.Raw, enc) {
		t.Fatalf("Raw = %x, %v; want %x", m.Raw, err, enc)
	}
}

// TestFrameIOAllocs is the allocation gate of the frame loop: writing a
// frame to a bufio.Writer and reading one into a warm buffer allocate
// nothing.
func TestFrameIOAllocs(t *testing.T) {
	f := Publish{Receptor: "m0", Seq: 1, Tuples: sampleTuples()}.Frame()
	bw := bufio.NewWriter(io.Discard)
	if n := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, f); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame to a bufio.Writer: %v allocs, want 0", n)
	}

	enc := AppendFrame(nil, f)
	var r bytes.Reader
	var buf []byte
	read := func() {
		r.Reset(enc)
		got, err := ReadFrameBuf(&r, &buf)
		if err != nil || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("ReadFrameBuf = %v, %v", got, err)
		}
	}
	read() // warm the buffer
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("ReadFrameBuf into a warm buffer: %v allocs, want 0", n)
	}
}

// writeCounter records the size of each write reaching the connection.
type writeCounter struct {
	writes []int
	bytes.Buffer
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestWriteFrameContiguous pins that WriteFrame never costs the peer a
// frame split over more writes than the bytes need: a frame that does
// not fit behind buffered bytes flushes them first, and a frame larger
// than the whole buffer goes out in one write of its own.
func TestWriteFrameContiguous(t *testing.T) {
	small := Frame{Type: TypeAck, Payload: make([]byte, 32)}
	mid := Frame{Type: TypePublish, Payload: bytes.Repeat([]byte{7}, 48)}
	big := Frame{Type: TypeData, Payload: bytes.Repeat([]byte{9}, 300)}
	var w writeCounter
	bw := bufio.NewWriterSize(&w, 64)
	for _, f := range []Frame{small, mid, big} {
		if err := WriteFrame(bw, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// small alone (mid does not fit behind it), mid alone (flushed ahead
	// of big), then big in one write of its own.
	if want := []int{40, 56, 308}; !reflect.DeepEqual(w.writes, want) {
		t.Errorf("write sizes %v, want %v", w.writes, want)
	}
	for _, want := range []Frame{small, mid, big} {
		got, err := ReadFrame(&w.Buffer)
		if err != nil || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read back %v, %v; want %v", got.Type, err, want.Type)
		}
	}
}

// TestTraceFieldRoundTrips covers the trace-context extension: publish,
// advance, and data frames carry an optional trailing trace ID, and the
// untraced forms stay byte-compatible with the
// pre-tracing protocol.
func TestTraceFieldRoundTrips(t *testing.T) {
	pub := Publish{Receptor: "mote-17", Seq: 9, Tuples: sampleTuples(), TraceID: 0xfeedface}
	if got, err := DecodePublish(pub.Frame()); err != nil {
		t.Fatal(err)
	} else if got.TraceID != pub.TraceID || got.Receptor != pub.Receptor || got.Seq != pub.Seq || !reflect.DeepEqual(got.Tuples, pub.Tuples) {
		t.Fatalf("traced publish mismatch: %+v", got)
	}

	adv := Advance{Seq: 3, Now: 123456789, TraceID: 0xabc}
	if got, err := DecodeAdvance(adv.Frame()); err != nil || got != adv {
		t.Fatalf("traced advance: %+v, %v", got, err)
	}

	data := Data{Stream: "rfid", Epoch: 777, Tuples: sampleTuples(), TraceID: 0xdead}
	if got, err := DecodeData(data.Frame()); err != nil {
		t.Fatal(err)
	} else if got.TraceID != data.TraceID || got.Stream != data.Stream || got.Epoch != data.Epoch || !reflect.DeepEqual(got.Tuples, data.Tuples) {
		t.Fatalf("traced data mismatch: %+v", got)
	}

	// Untraced frames encode exactly as the pre-tracing protocol did:
	// nothing trailing.
	plainPub := Publish{Receptor: "r0", Seq: 1, Tuples: sampleTuples()}
	want := appendString(nil, "r0")
	want = binary.BigEndian.AppendUint64(want, 1)
	want = AppendTuples(want, plainPub.Tuples)
	if !bytes.Equal(plainPub.Frame().Payload, want) {
		t.Error("untraced publish payload not byte-compatible with pre-tracing encoding")
	}
	plainAdv := Advance{Seq: 2, Now: 99}
	if n := len(plainAdv.Frame().Payload); n != 16 {
		t.Errorf("untraced advance payload = %d bytes, want 16", n)
	}
	plainData := Data{Stream: "s", Epoch: 5, Tuples: nil}
	wantData := appendString(nil, "s")
	wantData = binary.BigEndian.AppendUint64(wantData, 5)
	wantData = AppendTuples(wantData, nil)
	if !bytes.Equal(plainData.Frame().Payload, wantData) {
		t.Error("untraced data payload not byte-compatible with pre-tracing encoding")
	}

	// A traced frame's payload is the untraced payload plus exactly
	// eight trailing bytes — the shape an old decoder would skip.
	traced := pub.Frame().Payload
	untraced := plain2(pub).Frame().Payload
	if len(traced) != len(untraced)+8 || !bytes.Equal(traced[:len(untraced)], untraced) {
		t.Fatal("trace suffix is not a pure trailing extension")
	}
}

// plain2 strips the trace ID — the view an untraced consumer keeps.
func plain2(p Publish) Publish {
	p.TraceID = 0
	return p
}
