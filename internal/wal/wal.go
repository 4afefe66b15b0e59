// Package wal is the durability layer under the serving daemon: an
// epoch-aligned write-ahead log of raw readings, an archive of cleaned
// output, and a catalog of what was processed.
//
// Layout (one directory per tenant):
//
//	wal-00000001.seg   journal: publish records + commit barriers
//	arc-00000001.seg   archive: cleaned-output records + commit barriers
//	catalog.json       source, epoch range, record counts, completed flag
//
// Every segment file is a fixed 8-byte header followed by
// length-prefixed, CRC-32C-framed records:
//
//	header = "ESPW" | version(1) | reserved(3)
//	record = length(u32 BE, over body) | crc32c(u32 BE, over body) | body
//	body   = kind(1) | payload
//
// Record payloads reuse the canonical tuple encoding from
// internal/wire (equal tuples encode to equal bytes), so a journal is
// replayable byte-for-byte:
//
//	publish = receptor(uvarint len | bytes) | tuples
//	commit  = epoch(8, UnixNano big-endian)
//	output  = stream(uvarint len | bytes) | epoch(8, UnixNano BE) | tuples
//
// The journal is the source of truth: publish records are buffered and
// become durable at the next commit barrier (fsync on commit — the
// epoch is the durability unit). The archive is derivable from the
// journal by replay (the pipeline is deterministic), so it is synced
// lazily on rotation and close; recovery regenerates any archive tail a
// crash lost. Segments rotate only at commit barriers, which keeps
// every segment epoch-aligned: a segment boundary is always an epoch
// boundary.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"esp/internal/stream"
	"esp/internal/wire"
)

// Segment header: magic, format version, reserved padding.
var segHeader = [8]byte{'E', 'S', 'P', 'W', 1, 0, 0, 0}

// SegHeaderLen is the byte length of the segment header — the offset of
// a segment's first record (test support for crash injectors).
const SegHeaderLen = int64(len(segHeader))

// Record framing constants.
const (
	recHeaderLen = 8 // length(4) + crc(4)
	// MaxRecord bounds one record's body, mirroring the wire layer's
	// frame cap: a hostile length prefix is rejected before allocation.
	MaxRecord = 8 << 20
	// maxName bounds receptor/stream name lengths inside records.
	maxName = 1 << 12
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and the conventional choice for storage framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Kind discriminates record bodies.
type Kind uint8

const (
	// KindPublish is a raw-reading batch appended by one publish.
	KindPublish Kind = 0x01
	// KindCommit is an epoch barrier: everything before it belongs to
	// epochs at or before its boundary.
	KindCommit Kind = 0x02
	// KindOutput is one stream's cleaned output for one epoch
	// (archive segments only).
	KindOutput Kind = 0x03
)

func (k Kind) String() string {
	switch k {
	case KindPublish:
		return "publish"
	case KindCommit:
		return "commit"
	case KindOutput:
		return "output"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one decoded journal or archive entry.
type Record struct {
	Kind Kind
	// Receptor is the ingest channel a publish targeted (KindPublish).
	Receptor string
	// Stream is the output stream an archive record holds (KindOutput).
	Stream string
	// Epoch is the barrier boundary (KindCommit) or the epoch the
	// output belongs to (KindOutput).
	Epoch time.Time
	// Tuples are the readings (KindPublish) or cleaned output
	// (KindOutput).
	Tuples []stream.Tuple
}

// Decode errors. ErrShort means the buffer ends mid-record — a torn
// tail, not necessarily corruption.
var (
	ErrShort    = errors.New("wal: short record")
	ErrChecksum = errors.New("wal: record checksum mismatch")
)

// appendFrame frames a prepared body: length, CRC-32C, body.
func appendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, crcTable))
	return append(dst, body...)
}

// appendName appends a uvarint-length-prefixed name.
func appendName(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// nameSpan validates a length-prefixed name at the front of b and
// returns its bytes (aliasing b) and the bytes it occupies. Like the
// tuple codec it accepts only the minimal varint, so a record that
// decodes re-encodes byte for byte.
func nameSpan(b []byte) ([]byte, int, error) {
	n, used, err := wire.Uvarint(b)
	if errors.Is(err, wire.ErrShort) {
		return nil, 0, ErrShort
	}
	if err != nil {
		return nil, 0, err
	}
	if n > maxName {
		return nil, 0, fmt.Errorf("wal: name length %d exceeds %d", n, maxName)
	}
	if uint64(len(b)-used) < n {
		return nil, 0, ErrShort
	}
	return b[used : used+int(n)], used + int(n), nil
}

// appendBody appends r's body (kind byte + payload) without framing.
func appendBody(dst []byte, r Record) ([]byte, error) {
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindPublish:
		dst = appendName(dst, r.Receptor)
		dst = wire.AppendTuples(dst, r.Tuples)
	case KindCommit:
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Epoch.UnixNano()))
	case KindOutput:
		dst = appendName(dst, r.Stream)
		dst = binary.BigEndian.AppendUint64(dst, uint64(r.Epoch.UnixNano()))
		dst = wire.AppendTuples(dst, r.Tuples)
	default:
		return dst, fmt.Errorf("wal: cannot encode %v record", r.Kind)
	}
	return dst, nil
}

// AppendRecord appends the framed encoding of r.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	body, err := appendBody(nil, r)
	if err != nil {
		return dst, err
	}
	if len(body) > MaxRecord {
		return dst, fmt.Errorf("wal: record body %d bytes exceeds %d", len(body), MaxRecord)
	}
	return appendFrame(dst, body), nil
}

// DecodeRecord decodes one framed record from the front of b, returning
// it and the bytes consumed. ErrShort reports a torn tail (the buffer
// ends mid-record); any other error is corruption. The decoder is
// strict: a body with trailing bytes its kind does not account for is
// corrupt, which keeps valid records canonically re-encodable.
func DecodeRecord(b []byte) (Record, int, error) {
	raw, n, err := parseRecord(b)
	if err != nil {
		return Record{}, 0, err
	}
	r := Record{Kind: raw.kind, Epoch: raw.epoch}
	switch raw.kind {
	case KindPublish:
		r.Receptor = string(raw.name)
	case KindOutput:
		r.Stream = string(raw.name)
	}
	if raw.kind != KindCommit {
		// parseRecord validated the list under the same rules.
		if r.Tuples, _, err = wire.DecodeTuples(raw.tuples); err != nil {
			return Record{}, 0, err
		}
	}
	return r, n, nil
}

// rawRecord is one framed record checked under DecodeRecord's rules with
// its tuple list left encoded: name (the receptor or stream) and tuples
// (the counted list, count tuples long) alias the parsed bytes.
type rawRecord struct {
	kind   Kind
	name   []byte
	epoch  time.Time
	tuples []byte
	count  int
}

// parseRecord validates one framed record at the front of b without
// decoding its tuples — it accepts exactly the records DecodeRecord
// accepts, with the same errors, and allocates nothing — and returns it
// with the bytes consumed. The scans use it: they count and replay
// tuples, and a journal's tuples are decoded once, at replay, into
// reused scratch.
func parseRecord(b []byte) (rawRecord, int, error) {
	if len(b) < recHeaderLen {
		return rawRecord{}, 0, ErrShort
	}
	n := binary.BigEndian.Uint32(b)
	if n < 1 || n > MaxRecord {
		return rawRecord{}, 0, fmt.Errorf("wal: record length %d out of range", n)
	}
	if uint32(len(b)-recHeaderLen) < n {
		return rawRecord{}, 0, ErrShort
	}
	body := b[recHeaderLen : recHeaderLen+int(n)]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(b[4:]) {
		return rawRecord{}, 0, ErrChecksum
	}
	r := rawRecord{kind: Kind(body[0])}
	p := body[1:]
	switch r.kind {
	case KindPublish, KindOutput:
		name, used, err := nameSpan(p)
		if err != nil {
			return rawRecord{}, 0, err
		}
		r.name = name
		if r.kind == KindOutput {
			if len(p[used:]) < 8 {
				return rawRecord{}, 0, ErrShort
			}
			r.epoch = time.Unix(0, int64(binary.BigEndian.Uint64(p[used:]))).UTC()
			used += 8
		}
		count, used2, err := wire.SkipTuples(p[used:])
		if err != nil {
			return rawRecord{}, 0, err
		}
		if used+used2 != len(p) {
			return rawRecord{}, 0, fmt.Errorf("wal: %d trailing bytes in %v record", len(p)-used-used2, r.kind)
		}
		r.tuples, r.count = p[used:used+used2:used+used2], count
	case KindCommit:
		if len(p) != 8 {
			return rawRecord{}, 0, fmt.Errorf("wal: commit record body is %d bytes, want 8", len(p))
		}
		r.epoch = time.Unix(0, int64(binary.BigEndian.Uint64(p))).UTC()
	default:
		return rawRecord{}, 0, fmt.Errorf("wal: unknown record kind %d", body[0])
	}
	return r, recHeaderLen + int(n), nil
}
