package receptor

import (
	"fmt"
	"math/rand"
	"time"

	"esp/internal/stream"
)

// FaultKind classifies an injected receptor fault. The taxonomy follows
// the failure modes the paper's deployments actually exhibit — RFID
// readers silently dropping reads, motes dying as batteries drain,
// fail-dirty sensors reporting stuck values — plus the runtime-level
// failures (hangs, crashes) a supervised poller must survive.
type FaultKind int

const (
	// FaultDrop discards each affected tuple with probability P — silent
	// reader misses.
	FaultDrop FaultKind = iota
	// FaultDuplicate re-emits each affected tuple with probability P —
	// link-layer retransmission duplicates.
	FaultDuplicate
	// FaultDelay withholds affected tuples until Delay has elapsed past
	// their timestamp, releasing them after fresher readings — network
	// delay and reordering.
	FaultDelay
	// FaultStuck overwrites Field with Value in affected tuples — a
	// fail-dirty sensor pinned to one reading.
	FaultStuck
	// FaultSlowPoll makes Poll block for Sleep before answering — a
	// wedged device driver. Combined with a supervised poller deadline
	// this is the "hang" failure mode.
	FaultSlowPoll
	// FaultPanic makes Poll panic while the fault is active — a crashing
	// driver that recovers when the window ends.
	FaultPanic
	// FaultDie makes Poll panic forever once From is reached — permanent
	// device death (the window's Until is ignored).
	FaultDie
)

// String names the kind for schedules and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	case FaultStuck:
		return "stuck"
	case FaultSlowPoll:
		return "slow-poll"
	case FaultPanic:
		return "panic"
	case FaultDie:
		return "die"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one scheduled fault. Data faults (drop, duplicate, delay,
// stuck) gate on each tuple's timestamp, so their effect is a pure
// function of the tuple stream — independent of how polls batch it (the
// property the oracle's drop-commute check relies on). Liveness faults
// (slow-poll, panic, die) gate on the poll time itself.
type Fault struct {
	Kind FaultKind
	// From and Until bound the active window: active when From <= t <
	// Until. A zero Until means "forever". FaultDie ignores Until.
	From, Until time.Time
	// P is the per-tuple probability for drop/duplicate; values <= 0 or
	// >= 1 mean "every tuple".
	P float64
	// Field and Value configure FaultStuck.
	Field string
	Value stream.Value
	// Delay configures FaultDelay: a tuple with timestamp ts is withheld
	// until a poll with now >= ts+Delay.
	Delay time.Duration
	// Sleep configures FaultSlowPoll.
	Sleep time.Duration
}

// active reports whether the fault window covers t.
func (f *Fault) active(t time.Time) bool {
	if t.Before(f.From) {
		return false
	}
	return f.Until.IsZero() || t.Before(f.Until)
}

// hits reports whether the fault fires for a tuple at ts, consuming one
// RNG draw per in-window tuple for the probabilistic kinds. Keeping the
// draw discipline identical between online injection and offline
// ThinTrace is what makes drops commute with batching.
func (f *Fault) hits(rng *rand.Rand, ts time.Time) bool {
	if !f.active(ts) {
		return false
	}
	if f.P <= 0 || f.P >= 1 {
		return true
	}
	return rng.Float64() < f.P
}

// Sleeper abstracts blocking, so a chaos harness can substitute a
// virtual clock for time.Sleep and keep slow-poll faults deterministic.
type Sleeper func(d time.Duration)

// Faulty wraps a Receptor with a seeded, schedule-driven fault injector.
// The same (seed, schedule) pair always produces the same faults, so
// chaos runs are reproducible. Each fault draws from its own RNG stream
// (derived from the seed and the fault's position in the schedule), so
// adding a fault never perturbs another fault's decisions.
type Faulty struct {
	inner  Receptor
	faults []Fault
	rngs   []*rand.Rand
	// SleepFn implements FaultSlowPoll blocking; defaults to time.Sleep.
	SleepFn Sleeper

	held []heldTuple // FaultDelay backlog, in hold order
	dead bool        // FaultDie tripped
}

// heldTuple is one delayed tuple with its release time.
type heldTuple struct {
	t  stream.Tuple
	at time.Time
}

// NewFaulty wraps inner with the given fault schedule.
func NewFaulty(inner Receptor, seed int64, faults ...Fault) *Faulty {
	f := &Faulty{inner: inner, faults: faults, SleepFn: time.Sleep}
	for i := range faults {
		f.rngs = append(f.rngs, rand.New(rand.NewSource(seed+int64(i)*1000003)))
	}
	return f
}

// ID implements Receptor.
func (f *Faulty) ID() string { return f.inner.ID() }

// Type implements Receptor.
func (f *Faulty) Type() Type { return f.inner.Type() }

// Schema implements Receptor.
func (f *Faulty) Schema() *stream.Schema { return f.inner.Schema() }

// Inner returns the wrapped receptor.
func (f *Faulty) Inner() Receptor { return f.inner }

// Poll implements Receptor: liveness faults first (die, panic, slow),
// then the inner poll, then the data faults applied tuple by tuple in
// schedule order, then release of any due delayed tuples.
func (f *Faulty) Poll(now time.Time) []stream.Tuple {
	for i := range f.faults {
		ft := &f.faults[i]
		switch ft.Kind {
		case FaultDie:
			if f.dead || !now.Before(ft.From) {
				f.dead = true
				panic(fmt.Sprintf("receptor %s: injected permanent death", f.inner.ID()))
			}
		case FaultPanic:
			if ft.active(now) {
				panic(fmt.Sprintf("receptor %s: injected panic", f.inner.ID()))
			}
		case FaultSlowPoll:
			if ft.active(now) && ft.Sleep > 0 {
				f.SleepFn(ft.Sleep)
			}
		}
	}
	out := f.applyDataFaults(f.inner.Poll(now))
	// Release delayed tuples that have aged past their hold time. They
	// are appended after the fresh readings, so downstream sees them out
	// of timestamp order — the reordering the fault models.
	if len(f.held) > 0 {
		keep := f.held[:0]
		for _, h := range f.held {
			if !h.at.After(now) {
				out = append(out, h.t)
				continue
			}
			keep = append(keep, h)
		}
		f.held = keep
	}
	return out
}

// applyDataFaults runs each polled tuple through the schedule's data
// faults in schedule order. A tuple dropped by an earlier fault consumes
// no draws from later faults (mirrored exactly by ThinTrace).
func (f *Faulty) applyDataFaults(in []stream.Tuple) []stream.Tuple {
	if len(in) == 0 {
		return nil
	}
	var out []stream.Tuple
	for _, t := range in {
		tuples := []stream.Tuple{t}
		for i := range f.faults {
			ft := &f.faults[i]
			tuples = f.applyOne(ft, f.rngs[i], tuples)
			if len(tuples) == 0 {
				break
			}
		}
		for _, t := range tuples {
			if d, held := f.delayFor(t.Ts); held {
				// Held past the inner receptor's next Poll, which may
				// reuse the tuple's values: keep a copy.
				f.held = append(f.held, heldTuple{t: t.Clone(), at: t.Ts.Add(d)})
				continue
			}
			out = append(out, t)
		}
	}
	return out
}

// applyOne applies one data fault to the expansion of a single input
// tuple.
func (f *Faulty) applyOne(ft *Fault, rng *rand.Rand, ts []stream.Tuple) []stream.Tuple {
	switch ft.Kind {
	case FaultDrop:
		out := ts[:0]
		for _, t := range ts {
			if ft.hits(rng, t.Ts) {
				continue
			}
			out = append(out, t)
		}
		return out
	case FaultDuplicate:
		var out []stream.Tuple
		for _, t := range ts {
			out = append(out, t)
			if ft.hits(rng, t.Ts) {
				out = append(out, t)
			}
		}
		return out
	case FaultStuck:
		ix, ok := f.inner.Schema().Index(ft.Field)
		if !ok {
			return ts
		}
		for i, t := range ts {
			if !ft.active(t.Ts) {
				continue
			}
			cp := t.Clone()
			cp.Values[ix] = ft.Value
			ts[i] = cp
		}
		return ts
	default:
		return ts
	}
}

// delayFor reports the hold duration a delay fault imposes on a tuple
// with timestamp ts (held==false when no delay fault covers it).
func (f *Faulty) delayFor(ts time.Time) (time.Duration, bool) {
	for i := range f.faults {
		ft := &f.faults[i]
		if ft.Kind == FaultDelay && ft.active(ts) && ft.Delay > 0 {
			return ft.Delay, true
		}
	}
	return 0, false
}

// Pending reports how many delayed tuples await release.
func (f *Faulty) Pending() int { return len(f.held) }

// ThinTrace applies a drop-only fault schedule offline to a recorded
// trace: the returned slice holds exactly the tuples a Faulty with the
// same (seed, faults) would let through, regardless of how polls batch
// the trace. Non-drop kinds are rejected — only pure drops commute with
// cleaning this way. The oracle's chaos differential check replays
// deployments on thinned traces and demands byte-identical output.
func ThinTrace(trace []stream.Tuple, seed int64, faults ...Fault) ([]stream.Tuple, error) {
	for _, ft := range faults {
		if ft.Kind != FaultDrop {
			return nil, fmt.Errorf("receptor: ThinTrace supports drop faults only, got %s", ft.Kind)
		}
	}
	rngs := make([]*rand.Rand, len(faults))
	for i := range faults {
		rngs[i] = rand.New(rand.NewSource(seed + int64(i)*1000003))
	}
	var out []stream.Tuple
	for _, t := range trace {
		dropped := false
		for i := range faults {
			if faults[i].hits(rngs[i], t.Ts) {
				dropped = true
				break // later faults see no tuple, draw nothing
			}
		}
		if !dropped {
			out = append(out, t)
		}
	}
	return out, nil
}
