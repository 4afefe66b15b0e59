package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// epoch share its Epoch (the boundary, UnixNano); Parent is the ID of
// the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Lane   int    `json:"lane"` // the goroutine: a publisher connection's index, laneSub or laneMain
	Epoch  int64  `json:"epoch"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// Lanes other than the publisher connections' indexes.
const (
	laneSub  = publishers     // the subscriber connection
	laneMain = publishers + 1 // set-up, recovery, the oracle and the replays
)

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: end-to-end metrics are measured with spans off.
type recorder struct {
	origin time.Time
	next   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// record stores a finished span under a reserved ID.
func (r *recorder) record(id, parent int64, name string, lane int, epoch int64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Lane: lane, Epoch: epoch,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// add records a finished span under a fresh ID.
func (r *recorder) add(parent int64, name string, lane int, epoch int64, start, end time.Time) {
	r.record(r.id(), parent, name, lane, epoch, start, end)
}

// durationsUs lists the durations of every span called name on lane
// (any lane if negative) whose epoch is in [from, to], in microseconds.
func (r *recorder) durationsUs(name string, lane int, from, to int64) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (lane < 0 || s.Lane == lane) && s.Epoch >= from && s.Epoch <= to {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeFile writes the spans as one JSON document.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
