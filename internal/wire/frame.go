// Package wire implements the espd client/server protocol: a
// length-prefixed binary frame format carrying tuple batches, pipeline
// control messages, and backpressure acks over a plain TCP stream.
//
// Every frame is
//
//	magic(2) | type(1) | flags(1) | length(4, big-endian) | payload
//
// The payload is the message's binary encoding. No flag bits are
// defined: the flags byte is reserved and must be zero, and both frame
// decoders reject a frame that sets any.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame header constants.
const (
	magic0 = 0xE5
	magic1 = 0x9D
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 8
	// MaxPayload bounds a single frame's payload; a peer announcing more
	// is protocol-corrupt and the connection is dropped rather than
	// letting a length field drive an allocation.
	MaxPayload = 8 << 20
)

// Type identifies a frame's message type.
type Type uint8

// Protocol frame types.
const (
	// TypeHello opens a connection: tenant + role.
	TypeHello Type = 1
	// TypeCreate submits a pipeline spec (deployment config JSON) for a
	// tenant — the control-plane message.
	TypeCreate Type = 2
	// TypePublish delivers a batch of readings for one receptor channel.
	TypePublish Type = 3
	// TypeAdvance drives the tenant's epoch clock to a timestamp
	// (external punctuation — deterministic replay).
	TypeAdvance Type = 4
	// TypeSubscribe attaches the connection to a tenant's cleaned
	// output stream.
	TypeSubscribe Type = 5
	// TypeData carries cleaned output tuples to a subscriber.
	TypeData Type = 6
	// TypeAck acknowledges a Publish/Advance, reporting backpressure.
	TypeAck Type = 7
	// TypeError reports a failure; the connection stays usable unless
	// the peer closes it.
	TypeError Type = 8
	// TypeDrain tells a subscriber the stream is complete (graceful
	// shutdown); no further Data frames follow.
	TypeDrain Type = 9
	// TypeStats requests / carries a tenant stats snapshot (JSON).
	TypeStats Type = 10
)

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeCreate:
		return "create"
	case TypePublish:
		return "publish"
	case TypeAdvance:
		return "advance"
	case TypeSubscribe:
		return "subscribe"
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeDrain:
		return "drain"
	case TypeStats:
		return "stats"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Frame is one decoded protocol frame. Its header's flags byte is
// always zero on the wire.
type Frame struct {
	Type    Type
	Payload []byte
}

// Frame decoding errors.
var (
	// ErrBadMagic means the stream is not speaking the esp protocol.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrTooLarge means the announced payload exceeds MaxPayload.
	ErrTooLarge = errors.New("wire: frame payload exceeds limit")
	// ErrShort means the buffer ends before the announced payload does.
	ErrShort = errors.New("wire: short frame")
	// ErrFlags means the reserved flags byte is not zero.
	ErrFlags = errors.New("wire: reserved frame flags set")
)

// AppendFrame appends the encoded frame to dst and returns the extended
// slice.
func AppendFrame(dst []byte, f Frame) []byte {
	return append(appendHeader(dst, f.Type, len(f.Payload)), f.Payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The returned payload aliases b.
// Error messages carry the offending header fields (magic bytes, or the
// type byte with the flags byte or announced length) so a
// corrupted-in-transit stream is diagnosable from the error alone.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, ErrShort
	}
	typ, n, err := parseHeader(b[:HeaderLen])
	if err != nil {
		return Frame{}, 0, err
	}
	end := HeaderLen + int(n)
	if len(b) < end {
		return Frame{}, 0, ErrShort
	}
	return Frame{Type: typ, Payload: b[HeaderLen:end:end]}, end, nil
}

// parseHeader validates a frame header — magic, reserved flags, payload
// limit — and returns the frame type and payload length.
func parseHeader(hdr []byte) (Type, uint32, error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, fmt.Errorf("%w: got %#02x %#02x, want %#02x %#02x", ErrBadMagic, hdr[0], hdr[1], magic0, magic1)
	}
	typ := Type(hdr[2])
	if hdr[3] != 0 {
		return 0, 0, fmt.Errorf("%w: frame type %s (0x%02x) carries flags %#02x", ErrFlags, typ, hdr[2], hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: frame type %s (0x%02x) announces %d bytes (limit %d)",
			ErrTooLarge, typ, hdr[2], n, MaxPayload)
	}
	return typ, n, nil
}

// appendHeader appends the frame header for a payload of n bytes.
func appendHeader(dst []byte, t Type, n int) []byte {
	dst = append(dst, magic0, magic1, byte(t), 0)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// WriteFrame writes one frame to w as one contiguous write. To a
// *bufio.Writer the header and payload are copied straight into the
// writer's buffer — no intermediate frame is built, nothing allocates —
// after flushing what is already buffered when the frame would not fit
// behind it. A frame larger than the whole buffer is assembled and
// written at once, so the peer never sees a header sent ahead of its
// payload in a separate write.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrTooLarge
	}
	n := HeaderLen + len(f.Payload)
	if bw, ok := w.(*bufio.Writer); ok {
		if n > bw.Available() && bw.Buffered() > 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if n <= bw.Available() {
			b := appendHeader(bw.AvailableBuffer(), f.Type, len(f.Payload))
			_, err := bw.Write(append(b, f.Payload...))
			return err
		}
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, n), f))
	return err
}

// ReadFrame reads exactly one frame from r into freshly allocated
// memory: the returned payload is the caller's to keep. Connection
// loops read with ReadFrameBuf instead.
func ReadFrame(r io.Reader) (Frame, error) {
	var buf []byte
	return ReadFrameBuf(r, &buf)
}

// maxRetainedBuf bounds the read buffer ReadFrameBuf keeps between
// frames: a rare oversized frame is read into one-off memory rather
// than pinning up to MaxPayload per connection for its lifetime.
const maxRetainedBuf = 1 << 20

// ReadFrameBuf reads exactly one frame from r into *buf, growing it when
// the frame does not fit. The returned payload aliases *buf: it is valid
// until the next read into the same buffer, so a caller that keeps any
// of it must copy. Steady-state reads into a warm buffer allocate
// nothing.
//
// The header is validated before the payload is read, so a corrupt
// length cannot drive a huge allocation. Error messages carry the
// offending header fields (as DecodeFrame's do) so a corrupted-in-transit
// stream — a truncating proxy, a half-written frame — is diagnosable
// from the error alone.
func ReadFrameBuf(r io.Reader, buf *[]byte) (Frame, error) {
	b := *buf
	if cap(b) < HeaderLen {
		b = make([]byte, HeaderLen)
		*buf = b
	}
	// The header is read into the front of the buffer (a local array
	// would escape through the io.Reader call) and parsed before the
	// payload overwrites it.
	hdr := b[:HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	typ, n, err := parseHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	if int(n) > cap(b) {
		b = make([]byte, n)
		if n <= maxRetainedBuf {
			*buf = b
		}
	}
	payload := b[:n:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("wire: frame type %s (0x%02x) truncated mid-payload (want %d bytes): %w",
			typ, byte(typ), n, err)
	}
	return Frame{Type: typ, Payload: payload}, nil
}
