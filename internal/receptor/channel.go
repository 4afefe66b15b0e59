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
// whose timestamp has arrived.
//
// The channel owns what it buffers: Publish and PublishAll copy each
// tuple's Values into a channel-owned value slab, so the caller keeps
// its tuples and may reuse them — a connection's decoder scratch, say —
// as soon as the call returns. Poll's result, the tuples and their
// Values both, is borrowed until the channel's next Poll (the Receptor
// ownership rule). The channel keeps two slabs: the publish slab the
// backlog's values live in, and the slab the last Poll result points
// into. A Poll returns its due tuples in place, pointing into the
// publish slab, which becomes the result's slab; the previous result's
// slab has expired, so the not-yet-due tuples are copied into it and it
// becomes the publish slab. Poll therefore copies only held-back values
// and clears none: a recycled slab may keep references to strings of
// expired readings until later values overwrite them. A channel past
// warm-up allocates nothing.
type Channel struct {
	id     string
	typ    Type
	schema *stream.Schema

	mu sync.Mutex
	// The live backlog is buf[head:]; evicted and polled slots are
	// cleared so the backing array never pins tuple memory the channel
	// no longer owns. The backlog's values lie in vals[vhead:], in
	// backlog order and back to back; vals[:vhead] belong to evicted
	// tuples.
	buf   []stream.Tuple
	head  int
	vals  []stream.Value
	vhead int
	cap   int
	// dropped counts evictions.
	dropped atomic.Int64
	// out is Poll's result and outVals the slab its values lie in, both
	// reused by the next Poll.
	out     []stream.Tuple
	outVals []stream.Value
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

// Publish enqueues a copy of one tuple for the next Poll, evicting the
// oldest buffered tuple when the bound is reached.
func (c *Channel) Publish(t stream.Tuple) {
	c.PublishAll([]stream.Tuple{t})
}

// PublishAll enqueues copies of a batch under one lock acquisition — the
// serving layer's frame-ingest path, where a publish frame carries an
// epoch's readings at once. The slab is sized once for the whole batch
// and the values copied into it; ts is not retained.
func (c *Channel) PublishAll(ts []stream.Tuple) {
	if len(ts) == 0 {
		return
	}
	need := 0
	for i := range ts {
		need += len(ts[i].Values)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reserveLocked(need)
	// The headers go in with one bulk append and are then pointed at
	// their values' copies; the values are assigned one by one, which
	// for the one- to three-value readings receptors publish is cheaper
	// than a copy call per tuple.
	base := len(c.buf)
	buf := append(c.buf, ts...)
	n := len(c.vals)
	vals := c.vals[:n+need]
	for i := base; i < len(buf); i++ {
		src := buf[i].Values
		if len(src) == 0 {
			buf[i].Values = nil
			continue
		}
		dst := vals[n : n+len(src) : n+len(src)]
		for j := range src {
			dst[j] = src[j]
		}
		buf[i].Values = dst
		n += len(src)
	}
	c.buf, c.vals = buf, vals
	c.evictLocked()
}

// reserveLocked makes room for need more values behind the backlog's:
// by compacting the slab in place when evictions have freed enough of
// it, else by moving the backlog's values to a slab twice the size they
// need. Either way the slab stays proportional to the backlog, however
// long a saturated channel goes unpolled.
func (c *Channel) reserveLocked(need int) {
	if len(c.vals)+need <= cap(c.vals) {
		return
	}
	live := len(c.vals) - c.vhead
	if live+need <= cap(c.vals)/2 {
		// Clear the evicted values too, so they stop pinning strings.
		end := len(c.vals)
		c.vals = c.relocateLocked(c.vals[:0])
		clear(c.vals[len(c.vals):end])
	} else {
		c.vals = c.relocateLocked(make([]stream.Value, 0, 2*(live+need)))
	}
	c.vhead = 0
}

// relocateLocked copies the backlog's values to dst, back to back in
// backlog order, and points each tuple at its copy. dst must have room
// for them all (so the copies never move), and may be the slab itself:
// each value moves down or stays, which copy allows.
func (c *Channel) relocateLocked(dst []stream.Value) []stream.Value {
	for i := c.head; i < len(c.buf); i++ {
		if v := c.buf[i].Values; len(v) > 0 {
			n := len(dst)
			dst = append(dst, v...)
			c.buf[i].Values = dst[n:len(dst):len(dst)]
		}
	}
	return dst
}

// evictLocked enforces the bound by advancing the head index past the
// oldest tuples (publish order). Evicted slots are cleared immediately —
// Dropped is the single accounting point, so an eviction is never
// observable twice (not in Pending, not in a later Poll, not re-counted
// by a subsequent shrink).
func (c *Channel) evictLocked() {
	if over := len(c.buf) - c.head - c.cap; over > 0 {
		c.dropped.Add(int64(over))
		for _, t := range c.buf[c.head : c.head+over] {
			c.vhead += len(t.Values)
		}
		clear(c.buf[c.head : c.head+over])
		c.head += over
	}
	// Compact once the dead prefix dominates, so the backing array stays
	// proportional to the backlog rather than growing with total traffic
	// (the value slab is compacted by reserveLocked when it fills).
	if c.head > len(c.buf)/2 && c.head >= 64 {
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf = c.buf[:n]
		c.head = 0
	}
}

// Poll implements Receptor: it drains the tuples published so far whose
// Ts is at or before now, preserving publish order. The result is the
// channel's reused slice and its values lie in the channel's slab: both
// are valid until the next Poll, which overwrites them. The not-yet-due
// tuples stay in the backlog, their values moved to the slab the
// previous result expired from.
func (c *Channel) Poll(now time.Time) []stream.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.out) // the previous result is expired; drop its references
	out := c.out[:0]
	keep, held := 0, 0
	for _, t := range c.buf[c.head:] {
		if t.Ts.After(now) {
			c.buf[keep] = t // keep <= the read index: in-place is safe
			keep++
			held += len(t.Values)
			continue
		}
		out = append(out, t)
	}
	clear(c.buf[keep:])
	c.buf = c.buf[:keep]
	c.head = 0
	// The due tuples keep their values where they are, so the publish
	// slab becomes the result's; the expired result slab takes the held
	// tuples' values and becomes the publish slab.
	spare := c.outVals[:0]
	if cap(spare) < held {
		spare = make([]stream.Value, 0, 2*held)
	}
	c.outVals = c.vals
	c.vals = c.relocateLocked(spare)
	c.vhead = 0
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
