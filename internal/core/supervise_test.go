package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esp/internal/receptor"
	"esp/internal/stream"
)

var moteTempSchema = stream.MustSchema(stream.Field{Name: "temp", Kind: stream.KindFloat})

// tempTrace builds one reading per second at 1..n s.
func tempTrace(n, base int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = stream.NewTuple(at(float64(i+1)), stream.Float(float64(base+i)))
	}
	return out
}

// fakeClock is a virtual wall clock shared between the supervisor's Now
// and receptor.Faulty's SleepFn, making slow-poll faults and deadline
// decisions fully deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func healthOf(hs []ReceptorHealth, id string) ReceptorHealth {
	for _, h := range hs {
		if h.ID == id {
			return h
		}
	}
	return ReceptorHealth{}
}

// TestSupervisedPanicAndHangDeployment is the issue's acceptance
// scenario: one receptor panics permanently, one hangs past the Poll
// deadline for a bounded window. The run must complete every epoch,
// quarantine both receptors, readmit the one that recovers, and produce
// identical output on a rerun.
func TestSupervisedPanicAndHangDeployment(t *testing.T) {
	const epochs = 40
	run := func() (string, []ReceptorHealth, []HealthTransition) {
		clock := &fakeClock{t: at(0)}
		dead := receptor.NewFaulty(
			receptor.NewReplay("m0", receptor.TypeMote, moteTempSchema, tempTrace(epochs, 0)), 1,
			receptor.Fault{Kind: receptor.FaultDie, From: at(5)})
		hung := receptor.NewFaulty(
			receptor.NewReplay("m1", receptor.TypeMote, moteTempSchema, tempTrace(epochs, 100)), 2,
			receptor.Fault{Kind: receptor.FaultSlowPoll, Sleep: 100 * time.Millisecond, From: at(8), Until: at(12)})
		hung.SleepFn = clock.Sleep
		ok := receptor.NewReplay("m2", receptor.TypeMote, moteTempSchema, tempTrace(epochs, 200))

		p, err := NewProcessor(&Deployment{
			Epoch:     time.Second,
			Receptors: []receptor.Receptor{dead, hung, ok},
			Groups:    singleGroup("room", receptor.TypeMote, "m0", "m1", "m2"),
			Pipelines: map[receptor.Type]*Pipeline{
				receptor.TypeMote: {
					Type:   receptor.TypeMote,
					Smooth: SmoothAvg("temp", time.Second),
					Merge:  MergeAvg("temp", time.Second),
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var transitions []HealthTransition
		p.EnableSupervision(SupervisorConfig{
			PollTimeout:  50 * time.Millisecond,
			SuspectAfter: 2,
			BackoffBase:  4 * time.Second,
			BackoffMax:   16 * time.Second,
			VirtualTime:  true,
			Now:          clock.Now,
			OnTransition: func(tr HealthTransition) { transitions = append(transitions, tr) },
		})
		var sb strings.Builder
		p.OnType(receptor.TypeMote, func(tu stream.Tuple) {
			fmt.Fprintf(&sb, "%d|%v\n", tu.Ts.Unix(), tu.Values)
		})
		stepped := 0
		p.OnEpoch(func(time.Time) { stepped++ })
		if err := p.Run(at(0), at(epochs)); err != nil {
			t.Fatalf("supervised run failed: %v", err)
		}
		if stepped != epochs {
			t.Fatalf("completed %d epochs, want %d", stepped, epochs)
		}
		return sb.String(), p.HealthStats(), transitions
	}

	out1, hs, trs := run()
	out2, _, _ := run()
	if out1 != out2 {
		t.Fatalf("supervised chaos run is not deterministic per seed")
	}
	if out1 == "" {
		t.Fatalf("run produced no output")
	}

	m0 := healthOf(hs, "m0")
	if m0.State != Quarantined || m0.Quarantines != 1 || m0.Readmits != 0 {
		t.Fatalf("m0 (dead) = %+v, want quarantined with no readmission", m0)
	}
	if m0.Panics < 2 {
		t.Fatalf("m0 panics = %d, want >= 2 (initial failures plus probes)", m0.Panics)
	}
	m1 := healthOf(hs, "m1")
	if m1.State != Healthy || m1.Quarantines != 1 || m1.Readmits != 1 {
		t.Fatalf("m1 (hung) = %+v, want readmitted to healthy", m1)
	}
	if m1.Timeouts != 2 {
		t.Fatalf("m1 timeouts = %d, want 2 (suspect then quarantine)", m1.Timeouts)
	}
	m2 := healthOf(hs, "m2")
	if m2.State != Healthy || m2.Failures != 0 || m2.Polls != epochs {
		t.Fatalf("m2 (healthy) = %+v, want %d clean polls", m2, epochs)
	}

	// The hung receptor's walk: healthy → suspect → quarantined → healthy.
	var m1Walk []string
	for _, tr := range trs {
		if tr.ReceptorID == "m1" {
			m1Walk = append(m1Walk, tr.From.String()+">"+tr.To.String())
		}
	}
	want := []string{"healthy>suspect", "suspect>quarantined", "quarantined>healthy"}
	if strings.Join(m1Walk, " ") != strings.Join(want, " ") {
		t.Fatalf("m1 transitions = %v, want %v", m1Walk, want)
	}
}

// blockingReceptor hangs its first Poll until released — the
// device-wedged-forever case the production watchdog must survive.
type blockingReceptor struct {
	id      string
	release chan struct{}
	calls   atomic.Int32
}

func (r *blockingReceptor) ID() string             { return r.id }
func (r *blockingReceptor) Type() receptor.Type    { return receptor.TypeMote }
func (r *blockingReceptor) Schema() *stream.Schema { return moteTempSchema }
func (r *blockingReceptor) Poll(now time.Time) []stream.Tuple {
	if r.calls.Add(1) == 1 {
		<-r.release
	}
	return nil
}

// TestWatchdogTimeoutLiveness exercises the real (wall-clock) watchdog:
// a receptor that never returns must not stall the run — the poll is
// abandoned at the deadline, later epochs skip the receptor while the
// abandoned goroutine is in flight, and the receptor quarantines.
func TestWatchdogTimeoutLiveness(t *testing.T) {
	stuck := &blockingReceptor{id: "m0", release: make(chan struct{})}
	defer close(stuck.release)
	ok := receptor.NewReplay("m1", receptor.TypeMote, moteTempSchema, tempTrace(6, 0))
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{stuck, ok},
		Groups:    singleGroup("room", receptor.TypeMote, "m0", "m1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.EnableSupervision(SupervisorConfig{
		PollTimeout:  10 * time.Millisecond,
		SuspectAfter: 2,
		BackoffBase:  time.Hour, // no probes within the run
	})
	done := make(chan error, 1)
	go func() { done <- p.Run(at(0), at(6)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("supervised run deadlocked on a hung receptor")
	}
	h := healthOf(p.HealthStats(), "m0")
	if h.State != Quarantined {
		t.Fatalf("stuck receptor state = %s, want quarantined", h.State)
	}
	if h.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1 (single-flight: later epochs skip)", h.Timeouts)
	}
	if h.Skipped == 0 {
		t.Fatalf("no skipped polls recorded while the abandoned poll was in flight")
	}
	if healthOf(p.HealthStats(), "m1").Failures != 0 {
		t.Fatalf("healthy receptor reported failures")
	}
}

// panicStage is a Merge stage whose operator panics at every advance
// from a given sim-time on — a corrupt-operator-state stand-in.
func panicStage(from time.Time) Stage {
	return FuncStage{
		Name: "panic-at",
		Fn: func(in *stream.Schema, env BuildEnv) (stream.Operator, error) {
			return &panicOp{from: from}, nil
		},
	}
}

type panicOp struct {
	in   *stream.Schema
	from time.Time
}

func (o *panicOp) Open(in *stream.Schema) error { o.in = in; return nil }
func (o *panicOp) Schema() *stream.Schema       { return o.in }
func (o *panicOp) Process(t stream.Tuple) ([]stream.Tuple, error) {
	return []stream.Tuple{t}, nil
}
func (o *panicOp) Advance(now time.Time) ([]stream.Tuple, error) {
	if !now.Before(o.from) {
		panic("operator state corrupted")
	}
	return nil, nil
}
func (o *panicOp) Close() ([]stream.Tuple, error) { return nil, nil }

func panickingDeployment(t *testing.T) *Processor {
	t.Helper()
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{receptor.NewReplay("m0", receptor.TypeMote, moteTempSchema, tempTrace(8, 0))},
		Groups:    singleGroup("room", receptor.TypeMote, "m0"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeMote: {Type: receptor.TypeMote, Merge: panicStage(at(3))},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNodePanicIsolation: under supervision a panicking dataflow node is
// quarantined and the run continues; unsupervised, the panic surfaces as
// a labelled Step error.
func TestNodePanicIsolation(t *testing.T) {
	sup := panickingDeployment(t)
	sup.EnableSupervision(SupervisorConfig{})
	if err := sup.Run(at(0), at(8)); err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	var merge NodeStats
	for _, ns := range sup.NodeStats() {
		if ns.Kind == "merge" {
			merge = ns
		}
	}
	if merge.Panics != 1 || !merge.Quarantined {
		t.Fatalf("merge node = %+v, want 1 panic and quarantined", merge)
	}
	// Quarantined at the epoch-3 advance: punctuation stops afterwards.
	if merge.Advances != 3 {
		t.Fatalf("merge advances = %d, want 3 (no punctuation after quarantine)", merge.Advances)
	}

	unsup := panickingDeployment(t)
	err := unsup.Run(at(0), at(8))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("unsupervised run error = %v, want node panic error", err)
	}
}

// TestMergeVoteLiveDegradation: as group members die and quarantine, the
// live quorum rescales where a fixed MergeVote threshold under-reports.
func TestMergeVoteLiveDegradation(t *testing.T) {
	const epochs = 10
	onSchema := stream.MustSchema(stream.Field{Name: "value", Kind: stream.KindString})
	onTrace := func() []stream.Tuple {
		out := make([]stream.Tuple, epochs)
		for i := range out {
			out[i] = stream.NewTuple(at(float64(i+1)), stream.String("ON"))
		}
		return out
	}
	build := func(merge Stage) *Processor {
		a := receptor.NewFaulty(
			receptor.NewReplay("x0", receptor.TypeMotion, onSchema, onTrace()), 1,
			receptor.Fault{Kind: receptor.FaultDie, From: at(3)})
		b := receptor.NewReplay("x1", receptor.TypeMotion, onSchema, onTrace())
		c := receptor.NewFaulty(
			receptor.NewReplay("x2", receptor.TypeMotion, onSchema, onTrace()), 2,
			receptor.Fault{Kind: receptor.FaultDie, From: at(6)})
		p, err := NewProcessor(&Deployment{
			Epoch:     time.Second,
			Receptors: []receptor.Receptor{a, b, c},
			Groups:    singleGroup("hall", receptor.TypeMotion, "x0", "x1", "x2"),
			Pipelines: map[receptor.Type]*Pipeline{
				receptor.TypeMotion: {Type: receptor.TypeMotion, Merge: merge},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		p.EnableSupervision(SupervisorConfig{SuspectAfter: 1, BackoffBase: time.Hour})
		return p
	}
	countOn := func(p *Processor) int {
		n := 0
		p.OnType(receptor.TypeMotion, func(stream.Tuple) { n++ })
		if err := p.Run(at(0), at(epochs)); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Live quorum: 3 devices need 2 votes, 2 need 2, 1 needs 1 — the
	// group keeps reporting as members die.
	if got := countOn(build(MergeVoteLive(time.Second, 0.6))); got != epochs {
		t.Fatalf("MergeVoteLive fired %d of %d epochs", got, epochs)
	}
	// The fixed threshold goes silent once fewer than 2 voters remain.
	if got := countOn(build(MergeVote(time.Second, 2))); got >= epochs {
		t.Fatalf("fixed MergeVote fired %d epochs; expected under-reporting after deaths", got)
	}
}

// TestRunContextCancel: the run loop stops at the next epoch boundary
// once the context is cancelled and reports ctx.Err().
func TestRunContextCancel(t *testing.T) {
	t.Run("run", func(t *testing.T) {
		p, err := NewProcessor(&Deployment{
			Epoch:     time.Second,
			Receptors: []receptor.Receptor{receptor.NewReplay("m0", receptor.TypeMote, moteTempSchema, tempTrace(100, 0))},
			Groups:    singleGroup("room", receptor.TypeMote, "m0"),
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		epochs := 0
		p.OnEpoch(func(time.Time) {
			epochs++
			if epochs == 3 {
				cancel()
			}
		})
		if err := p.RunContext(ctx, at(0), at(100)); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if epochs != 3 {
			t.Fatalf("ran %d epochs after cancel, want exactly 3", epochs)
		}
	})
}

// TestConcurrentQuarantineRace hammers health and node snapshots from a
// second goroutine while a supervised run quarantines a panicking
// receptor — the served shape, where a metrics scrape reads the
// supervisor while the tenant steps. The -race exercise of the
// supervisor's locking (run via `make race`).
func TestConcurrentQuarantineRace(t *testing.T) {
	const epochs = 30
	bad := receptor.NewFaulty(
		receptor.NewReplay("m0", receptor.TypeMote, moteTempSchema, tempTrace(epochs, 0)), 1,
		receptor.Fault{Kind: receptor.FaultPanic, From: at(5), Until: at(12)})
	ok := receptor.NewReplay("m1", receptor.TypeMote, moteTempSchema, tempTrace(epochs, 100))
	p, err := NewProcessor(&Deployment{
		Epoch:     time.Second,
		Receptors: []receptor.Receptor{bad, ok},
		Groups:    singleGroup("room", receptor.TypeMote, "m0", "m1"),
		Pipelines: map[receptor.Type]*Pipeline{
			receptor.TypeMote: {
				Type:   receptor.TypeMote,
				Smooth: SmoothAvg("temp", time.Second),
				Merge:  MergeAvg("temp", time.Second),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.EnableSupervision(SupervisorConfig{SuspectAfter: 2, BackoffBase: 3 * time.Second, JitterFrac: 0.2, Seed: 9})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		live := p.Live()
		for {
			select {
			case <-stop:
				return
			default:
				p.HealthStats()
				p.NodeStats()
				live.LiveCount("room")
			}
		}
	}()
	err = p.Run(at(0), at(epochs))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	h := healthOf(p.HealthStats(), "m0")
	if h.Quarantines == 0 {
		t.Fatalf("panicking receptor was never quarantined: %+v", h)
	}
	if h.Readmits == 0 {
		t.Fatalf("recovered receptor was never readmitted: %+v", h)
	}
}
