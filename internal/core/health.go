package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"esp/internal/telemetry"
)

// HealthState is one receptor's position in the supervision state
// machine. Transitions (see DESIGN.md §6):
//
//	Healthy --failure--> Suspect --SuspectAfter consecutive failures--> Quarantined
//	Suspect --success--> Healthy
//	Quarantined --backoff elapsed, probe succeeds--> Healthy (readmitted)
//	Quarantined --probe fails--> Quarantined (backoff doubles, capped)
type HealthState int32

const (
	// Healthy receptors are polled every epoch.
	Healthy HealthState = iota
	// Suspect receptors have failed recently but are still polled; a
	// success clears them, further failures quarantine them.
	Suspect
	// Quarantined receptors are skipped (their proximity groups' live
	// membership shrinks) until an exponential-backoff probe readmits
	// them.
	Quarantined
)

// String names the state.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// HealthTransition is one state-machine edge, delivered to the
// SupervisorConfig.OnTransition callback and recorded by chaos
// harnesses. At is the simulation (epoch) time of the poll that caused
// the transition.
type HealthTransition struct {
	ReceptorID string
	From, To   HealthState
	At         time.Time
	// Cause is "panic", "timeout", "stuck" (abandoned poll still in
	// flight), "error", "probe-ok" or "poll-ok".
	Cause string
}

// pollOutcome classifies one guarded poll attempt.
type pollOutcome int

const (
	pollOK pollOutcome = iota
	pollPanic
	pollTimeout
	pollStuck // previous timed-out poll still in flight; attempt skipped
)

func (o pollOutcome) cause() string {
	switch o {
	case pollPanic:
		return "panic"
	case pollTimeout:
		return "timeout"
	case pollStuck:
		return "stuck"
	default:
		return "poll-ok"
	}
}

// receptorHealth is the live supervision state of one receptor. The
// mutex guards the state machine (HealthStats and the gauges read it
// from other goroutines while a run steps); the counters are registry handles
// (atomics inside) so HealthStats and Telemetry snapshots can read
// concurrently with a run. The handles are nil in bare FSM unit tests —
// every telemetry method is a nil-safe no-op.
type receptorHealth struct {
	mu      sync.Mutex
	state   HealthState
	streak  int           // consecutive failures
	backoff time.Duration // current quarantine backoff (0 = none yet)
	retryAt time.Time     // next probe time while quarantined
	rng     *rand.Rand    // jitter source, seeded per receptor

	inflight atomic.Bool // an abandoned timed-out poll is still running

	polls, failures, timeouts, panics *telemetry.Counter
	skipped                           *telemetry.Counter // polls suppressed by quarantine or in-flight guard
	quarantines, readmits             *telemetry.Counter
	pollLat                           *telemetry.Histogram // guarded-poll wall latency (telemetry enabled only)
}

// newReceptorHealth wires a health record's counters into the registry
// under the given prefix ("receptor.<id>.").
func newReceptorHealth(tel *telemetry.Registry, pfx string) *receptorHealth {
	return &receptorHealth{
		polls:       tel.Counter(pfx + "polls"),
		failures:    tel.Counter(pfx + "failures"),
		timeouts:    tel.Counter(pfx + "timeouts"),
		panics:      tel.Counter(pfx + "panics"),
		skipped:     tel.Counter(pfx + "skipped"),
		quarantines: tel.Counter(pfx + "quarantines"),
		readmits:    tel.Counter(pfx + "readmits"),
		pollLat:     tel.Histogram(pfx + "poll_ns"),
	}
}

// healthRules bundles the FSM tuning so transitions are testable
// without a supervisor or processor.
type healthRules struct {
	suspectAfter int
	backoffBase  time.Duration
	backoffMax   time.Duration
	jitterFrac   float64
}

// onSuccess advances the machine after a successful poll; it returns
// the transition taken, if any. Caller holds h.mu.
func (h *receptorHealth) onSuccess(now time.Time) (HealthTransition, bool) {
	h.streak = 0
	from := h.state
	if from == Healthy {
		return HealthTransition{}, false
	}
	h.state = Healthy
	h.backoff = 0
	h.retryAt = time.Time{}
	cause := "poll-ok"
	if from == Quarantined {
		cause = "probe-ok"
		h.readmits.Add(1)
	}
	return HealthTransition{From: from, To: Healthy, At: now, Cause: cause}, true
}

// onFailure advances the machine after a failed poll attempt (panic,
// timeout, stuck in-flight guard, or failed probe); it returns the
// transition taken, if any. Caller holds h.mu.
func (h *receptorHealth) onFailure(now time.Time, rules healthRules, cause string) (HealthTransition, bool) {
	h.streak++
	switch h.state {
	case Healthy:
		h.state = Suspect
		if h.streak >= rules.suspectAfter {
			// Degenerate config (SuspectAfter <= 1): straight to quarantine.
			h.enterQuarantine(now, rules)
			return HealthTransition{From: Healthy, To: Quarantined, At: now, Cause: cause}, true
		}
		return HealthTransition{From: Healthy, To: Suspect, At: now, Cause: cause}, true
	case Suspect:
		if h.streak < rules.suspectAfter {
			return HealthTransition{}, false
		}
		h.enterQuarantine(now, rules)
		return HealthTransition{From: Suspect, To: Quarantined, At: now, Cause: cause}, true
	default: // Quarantined: failed probe — double the backoff, stay put.
		h.extendQuarantine(now, rules)
		return HealthTransition{From: Quarantined, To: Quarantined, At: now, Cause: cause}, true
	}
}

func (h *receptorHealth) enterQuarantine(now time.Time, rules healthRules) {
	h.state = Quarantined
	h.quarantines.Add(1)
	h.backoff = rules.backoffBase
	h.retryAt = now.Add(h.jittered(h.backoff, rules))
}

func (h *receptorHealth) extendQuarantine(now time.Time, rules healthRules) {
	h.backoff *= 2
	if h.backoff > rules.backoffMax {
		h.backoff = rules.backoffMax
	}
	if h.backoff <= 0 {
		h.backoff = rules.backoffBase
	}
	h.retryAt = now.Add(h.jittered(h.backoff, rules))
}

// jittered stretches a backoff by up to jitterFrac, drawn from the
// receptor's seeded RNG — deterministic per seed, decorrelated across
// receptors so readmission probes do not stampede.
func (h *receptorHealth) jittered(d time.Duration, rules healthRules) time.Duration {
	if rules.jitterFrac <= 0 || h.rng == nil {
		return d
	}
	return d + time.Duration(float64(d)*rules.jitterFrac*h.rng.Float64())
}

// ReceptorHealth is a snapshot of one receptor's supervision state,
// reported by Processor.HealthStats in deployment receptor order.
type ReceptorHealth struct {
	ID    string
	State HealthState
	// Polls counts completed poll attempts (successful or failed);
	// Skipped counts epochs suppressed by quarantine or by the
	// in-flight guard after an abandoned timeout.
	Polls, Skipped int64
	// Failures counts failed attempts, split into Timeouts and Panics
	// (the remainder are stuck-in-flight attempts).
	Failures, Timeouts, Panics int64
	// Quarantines counts Healthy/Suspect→Quarantined edges; Readmits
	// counts successful probes.
	Quarantines, Readmits int64
	// NextProbe is the pending probe time while quarantined.
	NextProbe time.Time
}
