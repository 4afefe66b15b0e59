package server

import (
	"fmt"
	"hash/fnv"

	"esp/internal/wire"
)

// Fingerprint is an order-sensitive FNV-1a digest over canonical Data
// frame bytes. Feeding the same sequence of epochs' output (no matter
// whether it arrived through a TCP subscription, an in-process
// Subscription, or was re-encoded from decoded tuples) yields the same
// sum — the oracle the serving layer is checked against: a
// server-hosted pipeline must produce byte-identical output to an
// in-process run of the same spec and input.
type Fingerprint struct {
	h      uint64
	frames int
	tuples int
}

// NewFingerprint starts an empty digest.
func NewFingerprint() *Fingerprint {
	h := fnv.New64a()
	return &Fingerprint{h: h.Sum64()}
}

// Add folds one Data frame into the digest by its canonical binary
// encoding. The trace ID is zeroed first: tracing annotates frames, it
// must never change what the pipeline computed, so a traced run
// fingerprints identically to an untraced one.
func (fp *Fingerprint) Add(d wire.Data) {
	d.TraceID = 0
	b := d.Frame().Payload
	h := fp.h
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a prime
	}
	fp.h = h
	fp.frames++
	fp.tuples += len(d.Tuples)
}

// Sum reports the digest value.
func (fp *Fingerprint) Sum() uint64 { return fp.h }

// Frames reports how many Data frames were folded in.
func (fp *Fingerprint) Frames() int { return fp.frames }

// Tuples reports how many tuples the folded frames carried.
func (fp *Fingerprint) Tuples() int { return fp.tuples }

// String formats the digest for logs and bench reports.
func (fp *Fingerprint) String() string {
	return fmt.Sprintf("%016x (%d frames, %d tuples)", fp.h, fp.frames, fp.tuples)
}
