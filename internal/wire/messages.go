package wire

import (
	"encoding/binary"
	"fmt"

	"esp/internal/stream"
)

// appendString appends a uvarint-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeString decodes a length-prefixed string from the front of b.
func decodeString(b []byte) (string, int, error) { return decodeStringVia(b, nil) }

// decodeStringVia is decodeString through d's intern table.
func decodeStringVia(b []byte, d *Decoder) (string, int, error) {
	n, w, err := Uvarint(b)
	if err != nil {
		return "", 0, err
	}
	if n > uint64(len(b)-w) {
		return "", 0, ErrShort
	}
	return d.intern(b[w : w+int(n)]), w + int(n), nil
}

// Hello opens a connection, naming the tenant the connection serves and
// the role it plays ("publish", "subscribe", or "control").
//
// Session, when non-empty, binds the connection to a client-chosen
// session: the server tracks the session's last applied publish seq
// across connections, so a client that reconnects and re-sends an
// unacked publish under the same session has it deduplicated rather
// than double-applied. ResumeEpoch is the client's last acked epoch
// (UnixNano, 0 = none), re-announced on reconnect for the server's
// logs and telemetry. The hello Ack replies with the session's last
// applied seq (Ack.Seq) and the tenant's last committed epoch
// (Ack.Epoch) — everything the client needs to decide what to re-send.
type Hello struct {
	Tenant      string
	Role        string
	Session     string
	ResumeEpoch int64
}

// Frame encodes the message binary. The session fields are appended
// only when a session is named, so a session-less hello is byte-
// compatible with the pre-session protocol.
func (m Hello) Frame() Frame {
	p := appendString(nil, m.Tenant)
	p = appendString(p, m.Role)
	if m.Session != "" || m.ResumeEpoch != 0 {
		p = appendString(p, m.Session)
		p = binary.BigEndian.AppendUint64(p, uint64(m.ResumeEpoch))
	}
	return Frame{Type: TypeHello, Payload: p}
}

// DecodeHello decodes a hello frame. The session fields are optional
// trailing bytes: frames from pre-session encoders decode with an empty
// session.
func DecodeHello(f Frame) (Hello, error) {
	var m Hello
	t, w, err := decodeString(f.Payload)
	if err != nil {
		return m, err
	}
	r, w2, err := decodeString(f.Payload[w:])
	if err != nil {
		return m, err
	}
	m.Tenant, m.Role = t, r
	if rest := f.Payload[w+w2:]; len(rest) > 0 {
		s, w3, err := decodeString(rest)
		if err != nil {
			return m, err
		}
		if len(rest[w3:]) < 8 {
			return m, ErrShort
		}
		m.Session = s
		m.ResumeEpoch = int64(binary.BigEndian.Uint64(rest[w3:]))
	}
	return m, nil
}

// Create submits a pipeline for a tenant. Spec is a deployment config
// document (the same JSON espclean -config accepts, minus receptors —
// the server provisions receptor channels from the Receptors list).
type Create struct {
	Tenant string
	// Spec is the deployment spec JSON (epoch, schema, groups,
	// pipelines, virtualize).
	Spec []byte
}

// Frame encodes the message binary.
func (m Create) Frame() Frame {
	p := appendString(nil, m.Tenant)
	p = binary.AppendUvarint(p, uint64(len(m.Spec)))
	p = append(p, m.Spec...)
	return Frame{Type: TypeCreate, Payload: p}
}

// DecodeCreate decodes a create frame.
func DecodeCreate(f Frame) (Create, error) {
	var m Create
	t, w, err := decodeString(f.Payload)
	if err != nil {
		return m, err
	}
	rest := f.Payload[w:]
	n, vw, err := Uvarint(rest)
	if err != nil {
		return m, err
	}
	if n > uint64(len(rest)-vw) {
		return m, ErrShort
	}
	m.Tenant = t
	m.Spec = append([]byte(nil), rest[vw:vw+int(n)]...)
	return m, nil
}

// Publish delivers a batch of raw readings for one receptor channel.
// Seq identifies the frame for its Ack.
//
// TraceID, when non-zero, marks the request as traced: the server
// propagates the ID through apply, commit, and delivery so one request
// is observable end to end. It rides as optional trailing bytes, so an
// untraced publish is byte-compatible with the pre-tracing protocol.
//
// Raw is set by DecodePublish and Decoder.Publish: the validated
// counted tuple list Tuples was decoded from. It aliases the frame
// payload, and because the decoders accept only canonical bytes it
// equals AppendTuples(nil, Tuples) — which is what lets the serving
// layer journal it verbatim. Encoders ignore it.
type Publish struct {
	Receptor string
	Seq      uint64
	Tuples   []stream.Tuple
	TraceID  uint64
	Raw      []byte
}

// Frame encodes the message binary. TraceID is appended only when set.
func (m Publish) Frame() Frame {
	return Frame{Type: TypePublish, Payload: m.AppendPayload(nil)}
}

// AppendPayload appends the binary payload Frame carries to dst — the
// encoder a connection reuses one buffer with.
func (m Publish) AppendPayload(dst []byte) []byte {
	dst = appendString(dst, m.Receptor)
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = AppendTuples(dst, m.Tuples)
	if m.TraceID != 0 {
		dst = binary.BigEndian.AppendUint64(dst, m.TraceID)
	}
	return dst
}

// DecodePublish decodes a publish frame into freshly allocated tuples
// (one exact-size Values slice each) that are the caller's to keep. Raw
// aliases f.Payload; Tuples do not. A connection loop decodes with a
// Decoder instead.
func DecodePublish(f Frame) (Publish, error) { return decodePublish(f, nil) }

// Advance drives the tenant's epoch clock to Now (UnixNano): the server
// punctuates every granule boundary up to and including it. Seq
// identifies the frame for its Ack, which is sent only after every
// boundary has committed — the client-visible epoch barrier.
//
// TraceID, when non-zero, traces the epoch step this advance triggers
// (see Publish.TraceID). Optional trailing bytes, byte-compatible with
// the pre-tracing protocol when unset.
type Advance struct {
	Seq     uint64
	Now     int64
	TraceID uint64
}

// Frame encodes the message binary. TraceID is appended only when set.
func (m Advance) Frame() Frame {
	p := binary.BigEndian.AppendUint64(nil, m.Seq)
	p = binary.BigEndian.AppendUint64(p, uint64(m.Now))
	if m.TraceID != 0 {
		p = binary.BigEndian.AppendUint64(p, m.TraceID)
	}
	return Frame{Type: TypeAdvance, Payload: p}
}

// DecodeAdvance decodes an advance frame.
func DecodeAdvance(f Frame) (Advance, error) {
	var m Advance
	if len(f.Payload) < 16 {
		return m, ErrShort
	}
	m.Seq = binary.BigEndian.Uint64(f.Payload)
	m.Now = int64(binary.BigEndian.Uint64(f.Payload[8:]))
	if len(f.Payload) >= 24 {
		m.TraceID = binary.BigEndian.Uint64(f.Payload[16:])
	}
	return m, nil
}

// Subscribe attaches the connection to one of a tenant's cleaned output
// streams: a receptor type name, or "virtualize" for the cross-type
// stream.
//
// FromEpoch, when non-zero, resumes a dropped subscription: the server
// first replays every committed epoch strictly after FromEpoch
// (UnixNano) — from its in-memory retention ring or the WAL archive
// segments — before attaching the connection live, so a reconnecting
// subscriber sees every epoch exactly once.
type Subscribe struct {
	Tenant    string
	Stream    string
	FromEpoch int64
}

// Frame encodes the message binary. FromEpoch is appended only when
// set, so a plain subscribe is byte-compatible with the pre-resume
// protocol.
func (m Subscribe) Frame() Frame {
	p := appendString(nil, m.Tenant)
	p = appendString(p, m.Stream)
	if m.FromEpoch != 0 {
		p = binary.BigEndian.AppendUint64(p, uint64(m.FromEpoch))
	}
	return Frame{Type: TypeSubscribe, Payload: p}
}

// DecodeSubscribe decodes a subscribe frame.
func DecodeSubscribe(f Frame) (Subscribe, error) {
	var m Subscribe
	t, w, err := decodeString(f.Payload)
	if err != nil {
		return m, err
	}
	s, w2, err := decodeString(f.Payload[w:])
	if err != nil {
		return m, err
	}
	m.Tenant, m.Stream = t, s
	if rest := f.Payload[w+w2:]; len(rest) > 0 {
		if len(rest) < 8 {
			return m, ErrShort
		}
		m.FromEpoch = int64(binary.BigEndian.Uint64(rest))
	}
	return m, nil
}

// Data carries one epoch's cleaned output tuples for a subscribed
// stream. Epoch is the punctuation boundary (UnixNano) that released
// them.
//
// TraceID, when non-zero, is the exemplar trace for the epoch that
// produced this frame — the ID of a traced publish (or advance) that
// fed the commit — closing the loop from client publish to subscriber
// delivery. Optional trailing bytes, byte-compatible with the
// pre-tracing protocol when unset.
type Data struct {
	Stream  string
	Epoch   int64
	Tuples  []stream.Tuple
	TraceID uint64
}

// Frame encodes the message binary. TraceID is appended only when set.
func (m Data) Frame() Frame {
	p := appendString(nil, m.Stream)
	p = binary.BigEndian.AppendUint64(p, uint64(m.Epoch))
	p = AppendTuples(p, m.Tuples)
	if m.TraceID != 0 {
		p = binary.BigEndian.AppendUint64(p, m.TraceID)
	}
	return Frame{Type: TypeData, Payload: p}
}

// DecodeData decodes a data frame.
func DecodeData(f Frame) (Data, error) {
	var m Data
	s, w, err := decodeString(f.Payload)
	if err != nil {
		return m, err
	}
	rest := f.Payload[w:]
	if len(rest) < 8 {
		return m, ErrShort
	}
	epoch := int64(binary.BigEndian.Uint64(rest))
	ts, n, err := DecodeTuples(rest[8:])
	if err != nil {
		return m, err
	}
	var trace uint64
	if tail := rest[8+n:]; len(tail) >= 8 {
		trace = binary.BigEndian.Uint64(tail)
	}
	return Data{Stream: s, Epoch: epoch, Tuples: ts, TraceID: trace}, nil
}

// Ack acknowledges a Publish or Advance. Pending/Cap report the
// receptor channel's backlog after the operation — the client's
// backpressure signal — and Dropped the channel's lifetime eviction
// count.
//
// Epoch, when non-zero, carries the tenant's last committed epoch
// boundary (UnixNano). A hello Ack always sets it (alongside Seq = the
// session's last applied publish seq), which is how a reconnecting
// client learns what the server already has.
type Ack struct {
	Seq     uint64
	Pending int64
	Cap     int64
	Dropped int64
	Epoch   int64
}

// Frame encodes the message binary. Epoch is appended only when set,
// so a plain ack is byte-compatible with the pre-session protocol.
func (m Ack) Frame() Frame {
	return Frame{Type: TypeAck, Payload: m.AppendPayload(nil)}
}

// AppendPayload appends the binary payload Frame carries to dst.
func (m Ack) AppendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Pending))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Cap))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.Dropped))
	if m.Epoch != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Epoch))
	}
	return dst
}

// DecodeAck decodes an ack frame.
func DecodeAck(f Frame) (Ack, error) {
	var m Ack
	if len(f.Payload) < 32 {
		return m, ErrShort
	}
	m.Seq = binary.BigEndian.Uint64(f.Payload)
	m.Pending = int64(binary.BigEndian.Uint64(f.Payload[8:]))
	m.Cap = int64(binary.BigEndian.Uint64(f.Payload[16:]))
	m.Dropped = int64(binary.BigEndian.Uint64(f.Payload[24:]))
	if len(f.Payload) >= 40 {
		m.Epoch = int64(binary.BigEndian.Uint64(f.Payload[32:]))
	}
	return m, nil
}

// ErrorMsg reports a failure to the peer.
type ErrorMsg struct {
	Msg string
}

// Frame encodes the message binary.
func (m ErrorMsg) Frame() Frame {
	return Frame{Type: TypeError, Payload: appendString(nil, m.Msg)}
}

// DecodeError decodes an error frame.
func DecodeError(f Frame) (ErrorMsg, error) {
	var m ErrorMsg
	s, _, err := decodeString(f.Payload)
	if err != nil {
		return m, err
	}
	m.Msg = s
	return m, nil
}

// Errorf builds an error frame from a format string.
func Errorf(format string, args ...any) Frame {
	return ErrorMsg{Msg: fmt.Sprintf(format, args...)}.Frame()
}

// Drain tells a subscriber the stream is complete; the payload carries
// the final committed epoch (UnixNano), 0 if none.
type Drain struct {
	FinalEpoch int64
}

// Frame encodes the message binary.
func (m Drain) Frame() Frame {
	return Frame{Type: TypeDrain, Payload: binary.BigEndian.AppendUint64(nil, uint64(m.FinalEpoch))}
}

// DecodeDrain decodes a drain frame.
func DecodeDrain(f Frame) (Drain, error) {
	var m Drain
	if len(f.Payload) < 8 {
		return m, ErrShort
	}
	m.FinalEpoch = int64(binary.BigEndian.Uint64(f.Payload))
	return m, nil
}
