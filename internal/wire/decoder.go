package wire

import (
	"encoding/binary"
	"time"

	"esp/internal/stream"
)

// Intern table bounds: a Decoder keeps at most maxInterned strings of at
// most maxInternLen bytes each, and forgets them all when the table is
// full. A peer sending ever-new strings therefore pins a fixed amount of
// memory per decoder, however long the connection lives.
const (
	maxInterned  = 4096
	maxInternLen = 64
)

// Scratch bounds: a frame that decodes to more tuples or values than
// this is decoded into scratch the next call drops, so one oversized
// frame does not pin its memory for the connection's lifetime (the
// decoding twin of ReadFrameBuf's maxRetainedBuf).
const (
	maxRetainedTuples = 1 << 14
	maxRetainedValues = 1 << 16
)

// Decoder decodes publish frames and counted tuple lists into reused
// scratch: a connection that keeps one decodes steady-state frames
// without allocating. Receptor names and string values are interned in
// a bounded table, so a string the peer sends again costs a map lookup,
// not an allocation.
//
// What a Decoder returns is borrowed: the tuples, their Values and the
// Publish holding them are valid until the decoder's next call, which
// overwrites them. A caller that keeps any of it copies it out —
// receptor.Channel's Publish and PublishAll do. Strings are the
// exception: they are immutable and never alias the input bytes.
//
// The zero Decoder is ready to use. A Decoder is not safe for
// concurrent use.
type Decoder struct {
	tuples []stream.Tuple
	vals   []stream.Value
	names  map[string]string
}

// intern returns b as a string, from the table when it is there. A nil
// decoder, or a string too long to intern, allocates a fresh one.
func (d *Decoder) intern(b []byte) string {
	if d == nil || len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	} else if len(d.names) >= maxInterned {
		clear(d.names)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// Tuples decodes a counted tuple list from the front of b into the
// decoder's scratch, returning the tuples and the bytes consumed. It
// accepts exactly the bytes DecodeTuples accepts. The result is valid
// until the decoder's next call; each tuple's Values has its length as
// its capacity, so appending to one never writes into its neighbour.
func (d *Decoder) Tuples(b []byte) ([]stream.Tuple, int, error) {
	n, off, err := tupleCount(b)
	if err != nil {
		return nil, 0, err
	}
	if cap(d.tuples) > maxRetainedTuples {
		d.tuples = nil
	}
	if cap(d.vals) > maxRetainedValues {
		d.vals = nil
	}
	out, vals := d.tuples[:0], d.vals[:0]
	for i := uint64(0); i < n; i++ {
		ts, nv, w, err := tupleHead(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += w
		start := len(vals)
		if vals, w, err = decodeValues(b[off:], nv, vals, d); err != nil {
			return nil, 0, err
		}
		off += w
		// Values is re-pointed below: appends may have moved vals.
		out = append(out, stream.Tuple{Ts: time.Unix(0, ts).UTC(), Values: vals[start:len(vals):len(vals)]})
	}
	pos := 0
	for i := range out {
		k := len(out[i].Values)
		if k == 0 {
			out[i].Values = nil
			continue
		}
		out[i].Values = vals[pos : pos+k : pos+k]
		pos += k
	}
	d.tuples, d.vals = out, vals
	return out, off, nil
}

// Publish decodes a publish frame into the decoder's scratch. It
// accepts exactly the frames DecodePublish accepts; Raw aliases
// f.Payload, Receptor is interned, and Tuples are valid until the
// decoder's next call.
func (d *Decoder) Publish(f Frame) (Publish, error) {
	return decodePublish(f, d)
}

// decodePublish is DecodePublish over d's scratch, or allocating when d
// is nil.
func decodePublish(f Frame, d *Decoder) (Publish, error) {
	var m Publish
	r, w, err := decodeStringVia(f.Payload, d)
	if err != nil {
		return m, err
	}
	rest := f.Payload[w:]
	if len(rest) < 8 {
		return m, ErrShort
	}
	seq := binary.BigEndian.Uint64(rest)
	var ts []stream.Tuple
	var n int
	if d != nil {
		ts, n, err = d.Tuples(rest[8:])
	} else {
		ts, n, err = DecodeTuples(rest[8:])
	}
	if err != nil {
		return m, err
	}
	var trace uint64
	if tail := rest[8+n:]; len(tail) >= 8 {
		trace = binary.BigEndian.Uint64(tail)
	}
	return Publish{Receptor: r, Seq: seq, Tuples: ts, TraceID: trace, Raw: rest[8 : 8+n : 8+n]}, nil
}
