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

// valueSpan validates the canonical encoding of the value at the front
// of b and returns its kind and the extent of its payload, b[start:end];
// end is also the bytes the value occupies. It is the one place the
// value rules live: decodeValue builds a value from the span and
// SkipTuples only steps over it, so both accept exactly the same bytes.
func valueSpan(b []byte) (kind stream.Kind, start, end int, err error) {
	if len(b) < 1 {
		return 0, 0, 0, ErrShort
	}
	kind = stream.Kind(b[0])
	rest := b[1:]
	switch kind {
	case stream.KindNull:
		return kind, 1, 1, nil
	case stream.KindBool:
		if len(rest) < 1 {
			return 0, 0, 0, ErrShort
		}
		if rest[0] > 1 {
			return 0, 0, 0, fmt.Errorf("%w: bool byte %#02x", ErrNonCanonical, rest[0])
		}
		return kind, 1, 2, nil
	case stream.KindInt, stream.KindFloat, stream.KindTime:
		if len(rest) < 8 {
			return 0, 0, 0, ErrShort
		}
		return kind, 1, 9, nil
	case stream.KindString:
		n, w, err := Uvarint(rest)
		if err != nil {
			return 0, 0, 0, err
		}
		if n > uint64(len(rest)-w) {
			return 0, 0, 0, ErrShort
		}
		return kind, 1 + w, 1 + w + int(n), nil
	default:
		return 0, 0, 0, fmt.Errorf("wire: unknown value kind %d", kind)
	}
}

// decodeValue decodes one value from b, returning it and the bytes
// consumed. String values come from d's intern table (a nil d
// allocates each one).
func decodeValue(b []byte, d *Decoder) (stream.Value, int, error) {
	kind, start, end, err := valueSpan(b)
	if err != nil {
		return stream.Value{}, 0, err
	}
	p := b[start:end]
	switch kind {
	case stream.KindBool:
		return stream.Bool(p[0] == 1), end, nil
	case stream.KindInt:
		return stream.Int(int64(binary.BigEndian.Uint64(p))), end, nil
	case stream.KindFloat:
		return stream.Float(math.Float64frombits(binary.BigEndian.Uint64(p))), end, nil
	case stream.KindString:
		return stream.String(d.intern(p)), end, nil
	case stream.KindTime:
		return stream.Time(time.Unix(0, int64(binary.BigEndian.Uint64(p))).UTC()), end, nil
	}
	return stream.Null(), end, nil
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

// tupleHead validates a tuple's timestamp and value count at the front
// of b, returning the timestamp (UnixNano), the count and the bytes they
// occupy.
func tupleHead(b []byte) (ts int64, n uint64, off int, err error) {
	if len(b) < 8 {
		return 0, 0, 0, ErrShort
	}
	n, w, err := Uvarint(b[8:])
	if err != nil {
		return 0, 0, 0, err
	}
	off = 8 + w
	// Each value needs at least its kind byte, so n > len caps malformed
	// counts before allocating.
	if n > uint64(len(b)-off) {
		return 0, 0, 0, ErrShort
	}
	return int64(binary.BigEndian.Uint64(b)), n, off, nil
}

// decodeValues decodes n values from the front of b, appending them to
// vals; it returns the extended slice and the bytes consumed.
func decodeValues(b []byte, n uint64, vals []stream.Value, d *Decoder) ([]stream.Value, int, error) {
	off := 0
	for i := uint64(0); i < n; i++ {
		v, w, err := decodeValue(b[off:], d)
		if err != nil {
			return vals, 0, err
		}
		vals = append(vals, v)
		off += w
	}
	return vals, off, nil
}

// AppendTuples appends a counted tuple list.
func AppendTuples(dst []byte, ts []stream.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = AppendTuple(dst, t)
	}
	return dst
}

// tupleCount validates a counted tuple list's count at the front of b.
func tupleCount(b []byte) (uint64, int, error) {
	n, w, err := Uvarint(b)
	if err != nil {
		return 0, 0, err
	}
	// A tuple encodes to >= 9 bytes, bounding a hostile count.
	if n > uint64(len(b))/9+1 {
		return 0, 0, ErrShort
	}
	return n, w, nil
}

// DecodeTuples decodes a counted tuple list from the front of b,
// returning the tuples and the bytes consumed. Everything it returns is
// freshly allocated — one exact-size Values slice per tuple, so a
// caller that keeps some tuples pins only theirs — and the caller's to
// keep. A connection loop decodes with a Decoder instead.
func DecodeTuples(b []byte) ([]stream.Tuple, int, error) {
	n, off, err := tupleCount(b)
	if err != nil {
		return nil, 0, err
	}
	out := make([]stream.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		ts, nv, w, err := tupleHead(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += w
		var vals []stream.Value
		if nv > 0 {
			if vals, w, err = decodeValues(b[off:], nv, make([]stream.Value, 0, nv), nil); err != nil {
				return nil, 0, err
			}
			off += w
		}
		out = append(out, stream.Tuple{Ts: time.Unix(0, ts).UTC(), Values: vals})
	}
	return out, off, nil
}

// SkipTuples validates a counted tuple list at the front of b without
// decoding it: it accepts exactly the bytes DecodeTuples accepts, with
// the same errors, and returns the tuple count and the bytes consumed.
// It allocates nothing — the journal scan uses it to check a record it
// replays later.
func SkipTuples(b []byte) (int, int, error) {
	n, off, err := tupleCount(b)
	if err != nil {
		return 0, 0, err
	}
	for i := uint64(0); i < n; i++ {
		_, nv, w, err := tupleHead(b[off:])
		if err != nil {
			return 0, 0, err
		}
		off += w
		for j := uint64(0); j < nv; j++ {
			_, _, end, err := valueSpan(b[off:])
			if err != nil {
				return 0, 0, err
			}
			off += end
		}
	}
	return int(n), off, nil
}
