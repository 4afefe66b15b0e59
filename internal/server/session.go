package server

import (
	"fmt"
	"time"

	"esp/internal/receptor"
	"esp/internal/wire"
)

// session is one client-chosen publisher identity, surviving the
// connections that carry it. lastSeq is the highest publish seq the
// tenant has applied for the session; seqs at or below it are
// duplicates from a reconnect replay (the original was applied but its
// ack was lost in flight) and are dropped instead of re-applied —
// the server half of the exactly-once resume contract.
type session struct {
	lastSeq uint64
}

// AttachSession binds (or re-binds) a session ID to the tenant and
// reports the resume state a reconnecting client needs: the session's
// last applied publish seq and the tenant's last committed epoch.
// Re-attaching an existing ID is a reconnect and is counted as one.
func (t *Tenant) AttachSession(id string) (lastSeq uint64, lastEpoch int64, err error) {
	t.sessMu.Lock()
	s, ok := t.sessions[id]
	if !ok {
		if len(t.sessions) >= t.quota.maxSessions() {
			t.sessMu.Unlock()
			return 0, 0, fmt.Errorf("server: tenant %q session quota (%d) exhausted", t.name, t.quota.maxSessions())
		}
		s = &session{}
		t.sessions[id] = s
	}
	lastSeq = s.lastSeq
	t.sessMu.Unlock()
	if ok {
		t.reconnects.Add(1)
	}
	return lastSeq, t.Last().UnixNano(), nil
}

// publishSession applies a publish with exactly-once dedup: a seq at or
// below the session's high-water mark is acknowledged (with the
// channel's current backpressure state) but neither re-applied nor
// traced. The session lock is held across the apply so a zombie
// connection replaying the same seq cannot interleave with the live
// one.
func (t *Tenant) publishSession(id string, ch *receptor.Channel, m wire.Publish) (wire.Ack, error) {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	s, ok := t.sessions[id]
	if !ok {
		return wire.Ack{}, fmt.Errorf("server: tenant %q has no session %q (hello first)", t.name, id)
	}
	if m.Seq <= s.lastSeq {
		t.dedupDrops.Add(1)
		return channelAck(ch), nil
	}
	ack, err := t.apply(ch, m)
	if err != nil {
		return ack, err
	}
	s.lastSeq = m.Seq
	return ack, nil
}

// retainedEpoch is one committed epoch's output frames, kept in the
// tenant's in-memory retention ring so a reconnecting subscriber can
// be caught up without touching disk.
type retainedEpoch struct {
	epoch  int64
	frames []wire.Data // sorted by stream name
}

// retainLocked appends one committed epoch's frames to the ring,
// evicting the oldest entry past the horizon. Runs on the actor.
func (t *Tenant) retainLocked(epoch int64, frames []wire.Data) {
	if len(frames) == 0 {
		return
	}
	t.retained = append(t.retained, retainedEpoch{epoch: epoch, frames: frames})
	for len(t.retained) > t.quota.resumeHorizon() {
		t.evictedThrough = t.retained[0].epoch
		t.retained = t.retained[1:]
	}
}

// resumeBacklogLocked builds the Data frames a subscriber resuming
// from fromEpoch (exclusive) must be sent before going live: from the
// retention ring when it still covers the cursor, else from the WAL
// archive segments. Runs on the actor, so no epoch can commit between
// the snapshot and the subscriber attach — resume is gapless and
// duplicate-free by construction.
func (t *Tenant) resumeBacklogLocked(streamName string, fromEpoch int64) ([]wire.Data, error) {
	// evictedThrough == 0 means nothing has ever been evicted: the ring
	// still holds every output-bearing epoch, so any cursor (including
	// the negative from-genesis sentinel) is within the horizon.
	if t.evictedThrough == 0 || fromEpoch >= t.evictedThrough {
		var out []wire.Data
		for _, re := range t.retained {
			if re.epoch <= fromEpoch {
				continue
			}
			for _, d := range re.frames {
				if d.Stream == streamName {
					out = append(out, d)
				}
			}
		}
		return out, nil
	}
	if t.jl == nil {
		return nil, fmt.Errorf("server: tenant %q: resume from epoch %d is beyond the retention horizon (oldest retained > %d) and no WAL archive is configured",
			t.name, fromEpoch, t.evictedThrough)
	}
	epochs, err := t.jl.OutputsSince(time.Unix(0, fromEpoch).UTC())
	if err != nil {
		return nil, fmt.Errorf("server: tenant %q: archive resume: %w", t.name, err)
	}
	var out []wire.Data
	for _, ae := range epochs {
		for _, o := range ae.Outputs {
			if o.Stream == streamName {
				out = append(out, wire.Data{Stream: o.Stream, Epoch: ae.Epoch.UnixNano(), Tuples: o.Tuples})
			}
		}
	}
	return out, nil
}

// ResumeSubscribe attaches a consumer like Subscribe, but first
// returns the backlog of committed epochs strictly after fromEpoch
// (their Data frames, in epoch order) so a reconnecting subscriber
// resumes exactly where it left off. fromEpoch 0 is a plain live-only
// subscribe; a negative fromEpoch resumes from genesis (every retained
// committed epoch). The returned Subscription records the attach
// epoch — the boundary committed last at the instant of attach — which
// is the cursor a client that has received nothing yet must resume
// from.
func (t *Tenant) ResumeSubscribe(streamName string, fromEpoch int64) (*Subscription, []wire.Data, error) {
	sub := &subscriber{stream: streamName, ch: make(chan wire.Data, t.quota.subscriberBuffer())}
	var backlog []wire.Data
	var attached int64
	err := t.do(func() error {
		if len(t.subs) >= t.quota.maxSubscribers() {
			return fmt.Errorf("server: tenant %q subscriber quota (%d) exhausted", t.name, t.quota.maxSubscribers())
		}
		if fromEpoch != 0 {
			bl, err := t.resumeBacklogLocked(streamName, fromEpoch)
			if err != nil {
				return err
			}
			backlog = bl
			t.resumes.Add(1)
		}
		attached = t.last.UnixNano()
		t.subs = append(t.subs, sub)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return &Subscription{t: t, sub: sub, attached: attached}, backlog, nil
}
