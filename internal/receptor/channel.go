package receptor

import (
	"sync"
	"sync/atomic"
	"time"

	"esp/internal/stream"
)

// DefaultChannelCap is the buffer bound a new Channel starts with —
// generous enough that a healthy parent polling once per epoch never
// hits it, small enough that a stalled or quarantined parent cannot run
// the process out of memory.
const DefaultChannelCap = 1 << 16

// Channel is a receptor fed programmatically: upstream code publishes
// tuples and a downstream processor polls them out. It is the glue for
// hierarchical composition — the paper's ESP instances run "at the edge
// of the HiFi network", and a higher-level node consumes their cleaned
// outputs as if they were devices. Wire an edge processor's OnType sink
// to Publish and hand the Channel to the parent deployment. It is also
// the ingestion buffer of the espd serving layer: one Channel per
// connected receptor, with SetCap as the per-tenant quota knob.
//
// The internal buffer is bounded (SetCap; DefaultChannelCap initially):
// when a parent polls slower than children publish, the oldest unpolled
// tuples are dropped first — matching real receptor behaviour, where a
// reader's FIFO overwrites stale readings — and counted in Dropped.
// Every evicted tuple is counted exactly once, whether it was evicted by
// a Publish at the bound or by a SetCap shrink below the current
// backlog, and eviction is O(1) amortized: the buffer advances a head
// index instead of shifting, so a saturated channel does not pay a
// per-publish copy of the whole backlog.
//
// Publish is safe for concurrent use; Poll drains every published tuple
// whose timestamp has arrived. A channel past warm-up allocates
// nothing: the backlog keeps its backing array across polls, and Poll
// returns one reused slice that is valid until the channel's next Poll
// (the Receptor ownership rule).
type Channel struct {
	id     string
	typ    Type
	schema *stream.Schema

	mu sync.Mutex
	// The live backlog is buf[head:]; evicted and polled slots are
	// cleared so the backing array never pins tuple memory the channel
	// no longer owns.
	buf     []stream.Tuple
	head    int
	cap     int
	dropped atomic.Int64
	// out is Poll's result, reused by the next Poll.
	out []stream.Tuple
}

// NewChannel builds an empty channel receptor with the default buffer
// bound.
func NewChannel(id string, typ Type, schema *stream.Schema) *Channel {
	return &Channel{id: id, typ: typ, schema: schema, cap: DefaultChannelCap}
}

// ID implements Receptor.
func (c *Channel) ID() string { return c.id }

// Type implements Receptor.
func (c *Channel) Type() Type { return c.typ }

// Schema implements Receptor.
func (c *Channel) Schema() *stream.Schema { return c.schema }

// SetCap bounds the unpolled buffer to n tuples (n <= 0 restores the
// default). Shrinking below the current backlog drops the oldest tuples
// immediately, counting each exactly once in Dropped.
func (c *Channel) SetCap(n int) {
	if n <= 0 {
		n = DefaultChannelCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = n
	c.evictLocked()
}

// Cap reports the buffer bound.
func (c *Channel) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// Dropped reports how many published tuples were evicted unpolled. Safe
// from any goroutine.
func (c *Channel) Dropped() int64 { return c.dropped.Load() }

// Publish enqueues one tuple for the next Poll, evicting the oldest
// buffered tuple when the bound is reached.
func (c *Channel) Publish(t stream.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, t)
	c.evictLocked()
}

// PublishAll enqueues a batch under one lock acquisition — the serving
// layer's frame-ingest path, where a publish frame carries an epoch's
// readings at once.
func (c *Channel) PublishAll(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf = append(c.buf, ts...)
	c.evictLocked()
}

// evictLocked enforces the bound by advancing the head index past the
// oldest tuples (publish order). Evicted slots are cleared immediately —
// Dropped is the single accounting point, so an eviction is never
// observable twice (not in Pending, not in a later Poll, not re-counted
// by a subsequent shrink).
func (c *Channel) evictLocked() {
	if over := len(c.buf) - c.head - c.cap; over > 0 {
		c.dropped.Add(int64(over))
		clear(c.buf[c.head : c.head+over])
		c.head += over
	}
	// Compact once the dead prefix dominates, so the backing array stays
	// proportional to the backlog rather than growing with total traffic.
	if c.head > len(c.buf)/2 && c.head >= 64 {
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf = c.buf[:n]
		c.head = 0
	}
}

// Poll implements Receptor: it drains the tuples published so far whose
// Ts is at or before now, preserving publish order. The not-yet-due
// tuples are compacted to the front of the backlog in place, and the
// result is the channel's reused slice — valid until the next Poll,
// which overwrites it.
func (c *Channel) Poll(now time.Time) []stream.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.out) // the previous result is expired; drop its references
	out := c.out[:0]
	keep := 0
	for _, t := range c.buf[c.head:] {
		if t.Ts.After(now) {
			c.buf[keep] = t // keep <= the read index: in-place is safe
			keep++
			continue
		}
		out = append(out, t)
	}
	clear(c.buf[keep:])
	c.buf = c.buf[:keep]
	c.head = 0
	c.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Pending reports how many published tuples await polling.
func (c *Channel) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf) - c.head
}
