package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"esp/internal/stream"
)

// Tuple encoding: each tuple is
//
//	ts(8, UnixNano big-endian) | nvals(uvarint) | value...
//
// and each value is a kind byte followed by kind-specific bytes:
//
//	null              (nothing)
//	bool              1 byte, 0/1
//	int               8 bytes big-endian two's-complement
//	float             8 bytes IEEE-754 big-endian
//	string            uvarint length | bytes
//	time              8 bytes UnixNano big-endian
//
// A tuple list is ntuples(uvarint) | tuple... . The encoding is
// self-describing (no schema needed to decode) and canonical: equal
// tuples encode to equal bytes, which the serving oracle relies on when
// fingerprinting output streams. The decoder enforces the converse —
// it rejects a bool byte other than 0/1 and a varint longer than its
// minimal form — so bytes that decode are exactly the encoding of what
// they decode to, and the WAL can journal a publish's bytes verbatim.

// ErrNonCanonical marks bytes that would decode to a value whose
// canonical encoding differs from them.
var ErrNonCanonical = errors.New("wire: non-canonical encoding")

// Uvarint decodes a canonical (minimal-length) uvarint from the front
// of b, returning the value and the bytes consumed. A truncated or
// overflowing varint is ErrShort; a padded one — a final byte of zero
// after at least one continuation byte — is ErrNonCanonical.
func Uvarint(b []byte) (uint64, int, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, 0, ErrShort
	}
	if w > 1 && b[w-1] == 0 {
		return 0, 0, fmt.Errorf("%w: %d-byte varint for %d", ErrNonCanonical, w, n)
	}
	return n, w, nil
}

// appendValue appends the canonical encoding of v.
func appendValue(dst []byte, v stream.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case stream.KindNull:
	case stream.KindBool:
		if v.AsBool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case stream.KindInt:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.AsInt()))
	case stream.KindFloat:
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case stream.KindString:
		s := v.AsString()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case stream.KindTime:
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.AsTime().UnixNano()))
	}
	return dst
}

// decodeValue decodes one value from b, returning it and the bytes
// consumed.
func decodeValue(b []byte) (stream.Value, int, error) {
	if len(b) < 1 {
		return stream.Value{}, 0, ErrShort
	}
	kind := stream.Kind(b[0])
	rest := b[1:]
	switch kind {
	case stream.KindNull:
		return stream.Null(), 1, nil
	case stream.KindBool:
		if len(rest) < 1 {
			return stream.Value{}, 0, ErrShort
		}
		if rest[0] > 1 {
			return stream.Value{}, 0, fmt.Errorf("%w: bool byte %#02x", ErrNonCanonical, rest[0])
		}
		return stream.Bool(rest[0] == 1), 2, nil
	case stream.KindInt:
		if len(rest) < 8 {
			return stream.Value{}, 0, ErrShort
		}
		return stream.Int(int64(binary.BigEndian.Uint64(rest))), 9, nil
	case stream.KindFloat:
		if len(rest) < 8 {
			return stream.Value{}, 0, ErrShort
		}
		return stream.Float(math.Float64frombits(binary.BigEndian.Uint64(rest))), 9, nil
	case stream.KindString:
		n, w, err := Uvarint(rest)
		if err != nil {
			return stream.Value{}, 0, err
		}
		if n > uint64(len(rest)-w) {
			return stream.Value{}, 0, ErrShort
		}
		return stream.String(string(rest[w : w+int(n)])), 1 + w + int(n), nil
	case stream.KindTime:
		if len(rest) < 8 {
			return stream.Value{}, 0, ErrShort
		}
		ns := int64(binary.BigEndian.Uint64(rest))
		return stream.Time(time.Unix(0, ns).UTC()), 9, nil
	default:
		return stream.Value{}, 0, fmt.Errorf("wire: unknown value kind %d", kind)
	}
}

// AppendTuple appends the canonical encoding of t.
func AppendTuple(dst []byte, t stream.Tuple) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(t.Ts.UnixNano()))
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	for _, v := range t.Values {
		dst = appendValue(dst, v)
	}
	return dst
}

// decodeTuple decodes one tuple from b, returning it and the bytes
// consumed.
func decodeTuple(b []byte) (stream.Tuple, int, error) {
	if len(b) < 8 {
		return stream.Tuple{}, 0, ErrShort
	}
	ts := time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC()
	off := 8
	n, w, err := Uvarint(b[off:])
	if err != nil {
		return stream.Tuple{}, 0, err
	}
	off += w
	// Each value needs at least its kind byte, so n > len caps malformed
	// counts before allocating.
	if n > uint64(len(b)-off) {
		return stream.Tuple{}, 0, ErrShort
	}
	if n == 0 {
		return stream.Tuple{Ts: ts}, off, nil
	}
	vals := make([]stream.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		v, w, err := decodeValue(b[off:])
		if err != nil {
			return stream.Tuple{}, 0, err
		}
		vals = append(vals, v)
		off += w
	}
	return stream.Tuple{Ts: ts, Values: vals}, off, nil
}

// AppendTuples appends a counted tuple list.
func AppendTuples(dst []byte, ts []stream.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = AppendTuple(dst, t)
	}
	return dst
}

// DecodeTuples decodes a counted tuple list from the front of b,
// returning the tuples and the bytes consumed.
func DecodeTuples(b []byte) ([]stream.Tuple, int, error) {
	n, w, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	off := w
	// A tuple encodes to >= 9 bytes, bounding a hostile count.
	if n > uint64(len(b))/9+1 {
		return nil, 0, ErrShort
	}
	out := make([]stream.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		t, w, err := decodeTuple(b[off:])
		if err != nil {
			return nil, 0, err
		}
		out = append(out, t)
		off += w
	}
	return out, off, nil
}
