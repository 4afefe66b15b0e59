package server

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"esp/internal/core"
	"esp/internal/receptor"
	"esp/internal/stream"
	"esp/internal/telemetry"
	"esp/internal/wal"
	"esp/internal/wire"
)

// VirtualizeStream is the subscribe name of the cross-type Virtualize
// output (type streams subscribe under their type name).
const VirtualizeStream = "virtualize"

// Tenant hosts one deployment: a core.Processor, its receptor channels,
// an epoch clock driven by Advance frames, and the tenant's
// subscribers. A single actor goroutine owns the processor — publishes
// go straight to the (thread-safe) channels, but every Step and every
// subscriber mutation is serialized through the mailbox, which is what
// makes a tenant's output deterministic no matter how many connections
// feed it.
type Tenant struct {
	name  string
	epoch time.Duration
	proc  *core.Processor
	chans map[string]*receptor.Channel
	quota Quota
	reg   *telemetry.Registry

	cmds chan func()
	quit chan struct{} // closed by the drain command; tells loop to exit
	done chan struct{} // closed when loop has exited

	// jl, when non-nil, is the tenant's write-ahead log: publishes are
	// journalled before they are acked, and every committed epoch ends
	// with a fsynced barrier. recovered carries what Open found in an
	// existing journal (nil when the tenant started fresh).
	jl        *wal.Log
	recovered *wal.Recovery

	// Actor-owned state (touched only inside mailbox commands).
	last      time.Time                 // latest committed epoch boundary
	pending   map[string][]stream.Tuple // per-stream output buffered during a Step
	subs      []*subscriber
	drained   bool
	replaying bool // inside boot replay: suppress re-journalling

	// Retention ring for subscriber resume (actor-owned): the last
	// resumeHorizon() output-bearing epochs' Data frames, plus the
	// newest epoch evicted from it (resumes from at or before
	// evictedThrough must go to the archive instead).
	retained       []retainedEpoch
	evictedThrough int64

	// Publisher session table, guarded by its own lock (publishes
	// bypass the actor).
	sessMu   sync.Mutex
	sessions map[string]*session

	// Telemetry counters (atomic; readable from any goroutine).
	tuplesIn   *telemetry.Counter
	framesIn   *telemetry.Counter
	rejected   *telemetry.Counter
	epochs     *telemetry.Counter
	dataOut    *telemetry.Counter
	subKicked  *telemetry.Counter
	reconnects *telemetry.Counter
	resumes    *telemetry.Counter
	dedupDrops *telemetry.Counter
	idleKills  *telemetry.Counter

	// Observability plane (tentpole wiring).
	tracer    *telemetry.Tracer
	logger    *slog.Logger
	slowEpoch time.Duration

	// SLO histograms: epoch step cost, first-ingest→commit, and
	// commit→first-delivery latency.
	stepNs         *telemetry.Histogram
	ingestCommitNs *telemetry.Histogram
	deliveryNs     *telemetry.Histogram

	// RED counters per frame type (rate + errors; duration is the
	// rpc_*_ns histograms). Incremented by the connection handlers.
	rpcPublish   *telemetry.Counter
	rpcAdvance   *telemetry.Counter
	rpcSubscribe *telemetry.Counter
	rpcStats     *telemetry.Counter
	rpcErrors    *telemetry.Counter
	rpcPublishNs *telemetry.Histogram
	rpcAdvanceNs *telemetry.Histogram

	// firstIngest is the wall clock of the first publish since the last
	// commit (CAS-set, swapped out at commit) — the ingest→commit SLO's
	// start mark. pendingTrace holds the earliest traced publish's ID
	// since the last commit, the epoch's exemplar.
	firstIngest  atomic.Int64
	pendingTrace atomic.Uint64

	// Watermark/staleness atomics behind the slo_* gauges.
	lastEpochNano  atomic.Int64 // latest committed boundary (UnixNano)
	lastCommitWall atomic.Int64 // wall clock of that commit

	// Commit wall clocks by epoch, for the commit→delivery histogram
	// (deliveries happen on push goroutines, hence the lock).
	commitMu   sync.Mutex
	commitWall map[int64]int64
	commitQ    []int64

	// advTrace is the actor-owned trace carried by the advance driving
	// the current step (exemplar fallback when no publish was traced).
	// curFsyncTrace/curFsyncEpoch are set before jl.Commit so the WAL's
	// OnFsync hook (same goroutine) can attribute the fsync span.
	advTrace      telemetry.TraceID
	curFsyncTrace telemetry.TraceID
	curFsyncEpoch int64

	// Per-stage counter handles, diffed across a traced Step to emit
	// stage spans.
	stageTaps []stageTap
}

// stageTap is one pipeline-stage counter watched for traced epochs.
type stageTap struct {
	span   string // span name, e.g. "stage.smooth"
	detail string // receptor type (or "" for virtualize)
	c      *telemetry.Counter
}

// subscriber is one attached output consumer. Its channel is bounded: a
// consumer that stops reading is kicked (closed with lost=true) rather
// than allowed to stall the tenant's epoch clock.
type subscriber struct {
	stream string
	ch     chan wire.Data
	final  int64 // set before ch is closed on drain: last committed epoch
	lost   bool  // kicked for falling behind
}

// tenantConfig is the engine-level wiring a tenant inherits at birth:
// journalling, tracing, logging, and the slow-epoch threshold.
type tenantConfig struct {
	walDir    string
	walNoSync bool
	tracer    *telemetry.Tracer
	logger    *slog.Logger
	slowEpoch time.Duration
}

// newTenant compiles a spec and starts the tenant actor. The tenant's
// registry is the processor's own, extended with the serve_* counters,
// so one exposition block carries both pipeline and serving telemetry.
//
// cfg.walDir, when non-empty, is this tenant's log directory: the
// journal in it is scanned (truncating any torn or uncommitted tail),
// its committed epochs are replayed through the fresh processor before
// the actor starts — rebuilding window state exactly, by the
// replay-commute property the oracle proves — and the log stays open
// for the tenant's own journalling.
func newTenant(name string, ps *parsedSpec, cfg tenantConfig) (*Tenant, error) {
	proc, err := core.NewProcessor(ps.dep)
	if err != nil {
		return nil, err
	}
	proc.EnableTelemetry()
	t := &Tenant{
		name:     name,
		epoch:    ps.dep.Epoch,
		proc:     proc,
		chans:    ps.chans,
		quota:    ps.quota,
		reg:      proc.Telemetry(),
		cmds:     make(chan func()),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		last:     ps.start,
		pending:  make(map[string][]stream.Tuple),
		sessions: make(map[string]*session),

		tracer:     cfg.tracer,
		logger:     cfg.logger,
		slowEpoch:  cfg.slowEpoch,
		commitWall: make(map[int64]int64),
	}
	t.tuplesIn = t.reg.Counter("serve_tuples_in")
	t.framesIn = t.reg.Counter("serve_publish_frames")
	t.rejected = t.reg.Counter("serve_rejected_tuples")
	t.epochs = t.reg.Counter("serve_epochs")
	t.dataOut = t.reg.Counter("serve_data_frames")
	t.subKicked = t.reg.Counter("serve_subscribers_kicked")
	t.reconnects = t.reg.Counter("serve_reconnects")
	t.resumes = t.reg.Counter("serve_resumes")
	t.dedupDrops = t.reg.Counter("serve_dedup_drops")
	t.idleKills = t.reg.Counter("conn_idle_kills")
	t.reg.GaugeFunc("serve_backlog", func() int64 {
		var n int64
		for _, ch := range t.chans {
			n += int64(ch.Pending())
		}
		return n
	})
	t.stepNs = t.reg.Histogram("serve_step_ns")
	t.reg.Describe("serve_step_ns", "per-epoch pipeline Step latency")
	t.ingestCommitNs = t.reg.Histogram("slo_ingest_commit_ns")
	t.reg.Describe("slo_ingest_commit_ns", "first publish after a commit to the next commit barrier")
	t.deliveryNs = t.reg.Histogram("slo_commit_delivery_ns")
	t.reg.Describe("slo_commit_delivery_ns", "commit barrier to a subscriber's socket write")
	t.reg.GaugeFunc("slo_watermark_epoch", func() int64 { return t.lastEpochNano.Load() })
	t.reg.Describe("slo_watermark_epoch", "latest committed epoch boundary (UnixNano)")
	t.reg.GaugeFunc("slo_staleness_ns", func() int64 {
		w := t.lastCommitWall.Load()
		if w == 0 {
			return 0
		}
		return time.Now().UnixNano() - w
	})
	t.reg.Describe("slo_staleness_ns", "wall time since the last commit (0 until the first)")
	t.rpcPublish = t.reg.Counter("rpc_publish")
	t.rpcAdvance = t.reg.Counter("rpc_advance")
	t.rpcSubscribe = t.reg.Counter("rpc_subscribe")
	t.rpcStats = t.reg.Counter("rpc_stats")
	t.rpcErrors = t.reg.Counter("rpc_errors")
	t.reg.Describe("rpc_errors", "requests answered with an Error frame")
	t.rpcPublishNs = t.reg.Histogram("rpc_publish_ns")
	t.rpcAdvanceNs = t.reg.Histogram("rpc_advance_ns")

	// Deterministic sink registration order: sorted type names, then
	// virtualize. Sinks run inside Step (actor goroutine), appending to
	// the per-stream buffers the actor flushes after the Step returns.
	seen := make(map[string]bool)
	var types []string
	for _, gn := range ps.dep.Groups.Names() {
		g, _ := ps.dep.Groups.Group(gn)
		if tn := string(g.Type); !seen[tn] {
			seen[tn] = true
			types = append(types, tn)
		}
	}
	sort.Strings(types)
	for _, tn := range types {
		tn := tn
		proc.OnType(receptor.Type(tn), func(tu stream.Tuple) {
			t.pending[tn] = append(t.pending[tn], tu)
		})
	}
	if ps.dep.Virtualize != nil {
		proc.OnVirtualize(func(tu stream.Tuple) {
			t.pending[VirtualizeStream] = append(t.pending[VirtualizeStream], tu)
		})
	}

	// Stage taps: the per-type stage counters the processor registers,
	// diffed across a traced Step so the exemplar trace shows how many
	// tuples each stage released for that epoch. Resolved once here —
	// traced epochs pay a handful of atomic loads, not map lookups.
	for _, tn := range types {
		t.stageTaps = append(t.stageTaps, stageTap{span: "stage.point", detail: tn, c: t.reg.Counter(fmt.Sprintf("stage.%s/Point.tuples", tn))})
		t.stageTaps = append(t.stageTaps, stageTap{span: "stage.smooth", detail: tn, c: t.reg.Counter(fmt.Sprintf("stage.%s/Smooth.tuples", tn))})
		t.stageTaps = append(t.stageTaps, stageTap{span: "stage.merge", detail: tn, c: t.reg.Counter(fmt.Sprintf("stage.%s/Merge.tuples", tn))})
		t.stageTaps = append(t.stageTaps, stageTap{span: "stage.arbitrate", detail: tn, c: t.reg.Counter(fmt.Sprintf("stage.%s/Arbitrate.tuples", tn))})
	}
	if ps.dep.Virtualize != nil {
		t.stageTaps = append(t.stageTaps, stageTap{span: "stage.virtualize", c: t.reg.Counter("stage.virtualize.tuples")})
	}

	if cfg.walDir != "" {
		jl, rec, err := wal.Open(wal.Options{
			Dir: cfg.walDir, Source: name, Registry: t.reg, NoSync: cfg.walNoSync,
			// Runs on the committing goroutine (the actor) inside
			// Commit, so the actor-owned curFsync* fields are safe to
			// read — this is how a traced request's fsync cost lands in
			// its trace.
			OnFsync: func(d time.Duration) {
				if t.curFsyncTrace != 0 {
					t.tracer.Record(telemetry.SpanRecord{
						TraceID: t.curFsyncTrace, Name: "wal.fsync", Tenant: t.name,
						Epoch: t.curFsyncEpoch, Start: time.Now().Add(-d), DurNs: int64(d),
					})
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("server: tenant %q: wal: %w", name, err)
		}
		t.jl = jl
		// Registered up front (not on first replay) so the family is
		// present — and documented — on every WAL-backed tenant.
		t.reg.Counter("wal_replayed_epochs")
		t.reg.Counter("wal_replayed_tuples")
		if !rec.Empty() {
			t.recovered = rec
			if err := t.replay(rec); err != nil {
				jl.Crash() // leave the catalog uncompleted; the journal is untouched
				return nil, err
			}
		}
	}

	go t.loop()
	return t, nil
}

// replay drives the recovered history through the processor before the
// actor starts (no concurrency yet, so the actor-owned state is safe
// to touch directly). Publishes go to the same channels in journal
// order and every barrier commits through the same stepLocked path, so
// the rebuilt state is byte-identical to the pre-crash run's — only
// re-journalling and the fsync are suppressed, and with no subscribers
// attached yet nothing is delivered twice.
func (t *Tenant) replay(rec *wal.Recovery) error {
	replayedEpochs := t.reg.Counter("wal_replayed_epochs")
	replayedTuples := t.reg.Counter("wal_replayed_tuples")
	t.replaying = true
	defer func() { t.replaying = false }()
	var dec wire.Decoder
	for _, ep := range rec.Epochs {
		for _, p := range ep.Publishes {
			n, err := t.replayPublish(&dec, p)
			if err != nil {
				return err
			}
			replayedTuples.Add(int64(n))
		}
		if err := t.stepLocked(ep.Boundary); err != nil {
			return fmt.Errorf("server: tenant %q: replay: %w", t.name, err)
		}
		replayedEpochs.Add(1)
	}
	return nil
}

// replayPublish decodes one journalled publish into dec's scratch and
// appends it to its channel, which copies it out, reporting how many
// tuples it replayed. A record the admission check refuses — journalled
// by a server that did not check — is skipped and counted as rejected,
// as a checked server would have refused its frame: otherwise it fails
// the step, and every later boot with it.
func (t *Tenant) replayPublish(dec *wire.Decoder, p wal.Publish) (int, error) {
	ch, ok := t.chans[p.Receptor]
	if !ok {
		return 0, fmt.Errorf("server: tenant %q: journal names unknown receptor %q (spec drift?)", t.name, p.Receptor)
	}
	ts, _, err := dec.Tuples(p.Raw)
	if err != nil {
		return 0, fmt.Errorf("server: tenant %q: replay: %w", t.name, err)
	}
	if err := admit(ch, ts); err != nil {
		t.rejected.Add(int64(len(ts)))
		if t.logger != nil {
			t.logger.Warn("replay skipped a journalled publish the schema check refuses", "tenant", t.name, "err", err)
		}
		return 0, nil
	}
	ch.PublishAll(ts)
	return len(ts), nil
}

// Recovered reports what boot recovery replayed (nil when the tenant
// started fresh or journalling is off).
func (t *Tenant) Recovered() *wal.Recovery { return t.recovered }

func (t *Tenant) loop() {
	defer close(t.done)
	for {
		// quit is closed synchronously by the drain command (below, on
		// this goroutine), so this check deterministically stops the
		// loop before any command that raced with the drain can run.
		select {
		case <-t.quit:
			return
		default:
		}
		select {
		case fn := <-t.cmds:
			fn()
		case <-t.quit:
			return
		}
	}
}

// do runs fn on the actor goroutine and waits for it. The mailbox is
// never closed — after drain the loop has exited (done is closed) and
// senders fall through to the error arm; a command that slipped in just
// before the drain is rejected by the drained check on the actor.
func (t *Tenant) do(fn func() error) error {
	drainedErr := fmt.Errorf("server: tenant %q is drained", t.name)
	errc := make(chan error, 1)
	select {
	case t.cmds <- func() {
		if t.drained {
			errc <- drainedErr
			return
		}
		errc <- fn()
	}:
		// A successful send means the loop received the closure and will
		// run it before it can exit.
		return <-errc
	case <-t.done:
		return drainedErr
	}
}

// Name reports the tenant name.
func (t *Tenant) Name() string { return t.name }

// Epoch reports the tenant's punctuation period.
func (t *Tenant) Epoch() time.Duration { return t.epoch }

// Registry exposes the tenant's telemetry registry (the processor's own
// registry plus the serve_* counters) for exposition.
func (t *Tenant) Registry() *telemetry.Registry { return t.reg }

// Publish appends readings to one receptor channel and reports the
// channel's backpressure state — the in-process entry onto the publish
// path a connection's publish frames take. It does not pass through
// the actor — channels are thread-safe and eviction at the cap bounds
// memory — so publishers on many connections never serialize behind a
// Step.
func (t *Tenant) Publish(rec string, ts []stream.Tuple) (wire.Ack, error) {
	return t.publish("", wire.Publish{Receptor: rec, Tuples: ts})
}

// publish applies one decoded publish frame — the single publish path;
// sess, when non-empty, routes it through the session's exactly-once
// dedup (see publishSession).
func (t *Tenant) publish(sess string, m wire.Publish) (wire.Ack, error) {
	ch, ok := t.chans[m.Receptor]
	if !ok {
		return wire.Ack{}, fmt.Errorf("server: tenant %q has no receptor %q", t.name, m.Receptor)
	}
	if sess != "" {
		return t.publishSession(sess, ch, m)
	}
	return t.apply(ch, m)
}

// apply journals one publish and appends it to its channel.
//
// m.Raw, when set (a decoded frame's validated tuple bytes, aliasing the
// connection's read buffer), is journalled verbatim; without it — an
// in-process Publish — the log encodes m.Tuples.
// The record is the same either way, and m.Raw is not retained.
//
// A non-zero m.TraceID records a server.apply span (journal + channel
// append) and nominates the ID as the epoch's exemplar — the trace a
// slow-epoch event and the epoch's Data frames will reference. The
// untraced path (the overwhelming majority under sampling) adds
// exactly one predictable branch and no allocations.
func (t *Tenant) apply(ch *receptor.Channel, m wire.Publish) (wire.Ack, error) {
	rec, ts := m.Receptor, m.Tuples
	if max := t.quota.maxPublishTuples(); len(ts) > max {
		return wire.Ack{}, fmt.Errorf("server: publish of %d tuples exceeds tenant quota %d", len(ts), max)
	}
	if err := admit(ch, ts); err != nil {
		t.rejected.Add(int64(len(ts)))
		return wire.Ack{}, fmt.Errorf("server: tenant %q: publish refused: %w", t.name, err)
	}
	t0 := time.Now()
	t.firstIngest.CompareAndSwap(0, t0.UnixNano())
	if t.jl != nil {
		// Journal before ack. The channel publish runs under the log's
		// lock so journal order and channel order agree even with
		// concurrent publishers — what makes replay byte-identical.
		// The record is durable at the next commit barrier; a crash
		// before then loses it, which is the documented contract:
		// clients re-send everything after the last committed epoch.
		then := func() { ch.PublishAll(ts) }
		var err error
		if m.Raw != nil {
			err = t.jl.JournalEncoded(rec, m.Raw, then)
		} else {
			err = t.jl.Journal(rec, ts, then)
		}
		if err != nil {
			return wire.Ack{}, fmt.Errorf("server: tenant %q: journal: %w", t.name, err)
		}
	} else {
		ch.PublishAll(ts)
	}
	t.framesIn.Add(1)
	t.tuplesIn.Add(int64(len(ts)))
	if m.TraceID != 0 {
		// Earliest traced publish wins the exemplar slot for the epoch.
		t.pendingTrace.CompareAndSwap(0, m.TraceID)
		t.tracer.Record(telemetry.SpanRecord{
			TraceID: telemetry.TraceID(m.TraceID), Name: "server.apply", Tenant: t.name,
			Detail: rec, Start: t0, DurNs: int64(time.Since(t0)), In: int64(len(ts)),
		})
	}
	return channelAck(ch), nil
}

// admit is the admission check: every tuple must match the receptor's
// declared schema (stream.CheckTuples: equal arity, each value NULL or
// of its field's kind, an int accepted for a float). It runs before a
// publish is journalled, so a malformed reading is refused with a
// deterministic error instead of failing the step it reaches and every
// replay of the journal after it.
func admit(ch *receptor.Channel, ts []stream.Tuple) error {
	if i, err := stream.CheckTuples(ch.Schema(), ts); err != nil {
		return fmt.Errorf("receptor %q tuple %d: %w", ch.ID(), i, err)
	}
	return nil
}

// channelAck reports a channel's backpressure state.
func channelAck(ch *receptor.Channel) wire.Ack {
	return wire.Ack{
		Pending: int64(ch.Pending()),
		Cap:     int64(ch.Cap()),
		Dropped: ch.Dropped(),
	}
}

// Advance commits every epoch boundary in (last, now]: for each one the
// processor polls the channels and steps the pipeline, and the
// boundary's output is flushed to subscribers before the next boundary
// runs. Advance returns after the last boundary has committed — it is
// the client-visible epoch barrier.
func (t *Tenant) Advance(now time.Time) error {
	return t.AdvanceTraced(now, 0)
}

// AdvanceTraced is Advance carrying the frame's trace context: a
// non-zero traceID records a server.advance span covering every
// boundary the advance committed, and serves as the exemplar for
// boundaries no traced publish fed. An untraced advance asks the
// tenant's own tracer to sample — the server-side origin that keeps
// one in every sampleN advance-driven epochs observable even when no
// client propagates a trace.
func (t *Tenant) AdvanceTraced(now time.Time, traceID uint64) error {
	if traceID == 0 {
		if id, ok := t.tracer.Sample(); ok {
			traceID = uint64(id)
		}
	}
	var t0 time.Time
	if traceID != 0 {
		t0 = time.Now()
	}
	err := t.do(func() error {
		t.advTrace = telemetry.TraceID(traceID)
		defer func() { t.advTrace = 0 }()
		return t.advanceLocked(now.UTC())
	})
	if traceID != 0 {
		t.tracer.Record(telemetry.SpanRecord{
			TraceID: telemetry.TraceID(traceID), Name: "server.advance", Tenant: t.name,
			Epoch: now.UnixNano(), Start: t0, DurNs: int64(time.Since(t0)),
		})
	}
	return err
}

// advanceLocked runs on the actor goroutine.
func (t *Tenant) advanceLocked(now time.Time) error {
	for b := t.last.Add(t.epoch); !b.After(now); b = b.Add(t.epoch) {
		if err := t.stepLocked(b); err != nil {
			return err
		}
	}
	return nil
}

// stepLocked commits one epoch boundary and flushes its output. With a
// WAL attached the barrier is made durable (archive the epoch's
// output, append the journal barrier, fsync) before subscribers see
// the epoch — an advance ack therefore guarantees the epoch survives
// a crash. During boot replay the barrier already exists on disk, so
// only lost archive records are regenerated.
func (t *Tenant) stepLocked(b time.Time) error {
	// The epoch's exemplar trace: the earliest traced publish since the
	// last commit, falling back to the advance that drove this boundary.
	// Replay never traces — the spans would describe a reconstruction,
	// not a request.
	var exemplar telemetry.TraceID
	if !t.replaying {
		exemplar = telemetry.TraceID(t.pendingTrace.Swap(0))
		if exemplar == 0 {
			exemplar = t.advTrace
		}
	}
	var preStages []int64
	if exemplar != 0 {
		preStages = make([]int64, len(t.stageTaps))
		for i, tap := range t.stageTaps {
			preStages[i] = tap.c.Load()
		}
	}
	epoch := b.UnixNano()
	t.curFsyncTrace, t.curFsyncEpoch = exemplar, epoch

	t0 := time.Now()
	if err := t.proc.Step(b); err != nil {
		return fmt.Errorf("server: tenant %q: %w", t.name, err)
	}
	stepDur := time.Since(t0)
	t.stepNs.Observe(stepDur)
	t.last = b
	t.epochs.Add(1)
	if t.jl != nil {
		var err error
		if t.replaying {
			err = t.jl.ReplayCommit(b, t.pending)
		} else {
			err = t.jl.Commit(b, t.pending)
		}
		if err != nil {
			return fmt.Errorf("server: tenant %q: wal: %w", t.name, err)
		}
	}
	if !t.replaying {
		now := time.Now()
		t.lastEpochNano.Store(epoch)
		t.lastCommitWall.Store(now.UnixNano())
		if fi := t.firstIngest.Swap(0); fi != 0 {
			t.ingestCommitNs.Observe(time.Duration(now.UnixNano() - fi))
		}
	}
	if exemplar != 0 {
		for i, tap := range t.stageTaps {
			if d := tap.c.Load() - preStages[i]; d > 0 {
				t.tracer.Record(telemetry.SpanRecord{
					TraceID: exemplar, Name: tap.span, Tenant: t.name,
					Detail: tap.detail, Epoch: epoch, Start: t0, Out: d,
				})
			}
		}
	}
	t.flushLocked(b, exemplar)
	total := time.Since(t0)
	if exemplar != 0 {
		t.tracer.Record(telemetry.SpanRecord{
			TraceID: exemplar, Name: "pipeline.step", Tenant: t.name,
			Epoch: epoch, Start: t0, DurNs: int64(total),
		})
	}
	if t.slowEpoch > 0 && total > t.slowEpoch && t.logger != nil && !t.replaying {
		// The structured slow-epoch event: the exemplar trace ID is the
		// bridge from an aggregate symptom ("epochs are slow") to one
		// concrete request's span breakdown in /traces.
		t.logger.Warn("slow epoch",
			"tenant", t.name, "epoch", epoch,
			"step", stepDur, "total", total,
			"trace", exemplar.String())
	}
	return nil
}

// flushLocked hands the epoch's buffered output to the subscribers and
// appends it to the retention ring. Each stream's frame is built once
// and shared — subscribers, the ring, and resume backlogs all read the
// same immutable Data value. A non-zero exemplar is stamped into every
// frame so the epoch's trace ID travels to the subscriber's wire.
func (t *Tenant) flushLocked(b time.Time, exemplar telemetry.TraceID) {
	if len(t.pending) == 0 {
		return
	}
	epoch := b.UnixNano()
	var names []string
	for name, out := range t.pending {
		if len(out) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	frames := make(map[string]wire.Data, len(names))
	ordered := make([]wire.Data, 0, len(names))
	for _, name := range names {
		d := wire.Data{Stream: name, Epoch: epoch, Tuples: append([]stream.Tuple(nil), t.pending[name]...), TraceID: uint64(exemplar)}
		frames[name] = d
		ordered = append(ordered, d)
	}
	t.retainLocked(epoch, ordered)
	if !t.replaying {
		t.stampCommit(epoch)
	}
	keep := t.subs[:0]
	for _, sub := range t.subs {
		d, ok := frames[sub.stream]
		if !ok {
			keep = append(keep, sub)
			continue
		}
		select {
		case sub.ch <- d:
			t.dataOut.Add(1)
			keep = append(keep, sub)
		default:
			// The consumer is a full buffer behind: kick it rather than
			// stall the tenant's epoch clock.
			sub.lost = true
			close(sub.ch)
			t.subKicked.Add(1)
		}
	}
	t.subs = keep
	for k := range t.pending {
		t.pending[k] = t.pending[k][:0]
	}
}

// Subscribe attaches a consumer to one of the tenant's output streams
// (a receptor type name, or VirtualizeStream). The returned channel
// delivers one Data frame per committed epoch with output; it is closed
// after drain (Final reports the final committed epoch) or when the
// consumer is kicked for falling behind (Lost).
func (t *Tenant) Subscribe(streamName string) (*Subscription, error) {
	sub, _, err := t.ResumeSubscribe(streamName, 0)
	return sub, err
}

// Unsubscribe detaches a subscriber (consumer-initiated close).
func (t *Tenant) unsubscribe(target *subscriber) {
	_ = t.do(func() error {
		for i, sub := range t.subs {
			if sub == target {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				close(sub.ch)
				return nil
			}
		}
		return nil
	})
}

// Drain gracefully stops the tenant: every reading already published is
// committed (the clock advances past the newest pending timestamp), the
// final epoch is flushed, subscribers are closed with the final epoch
// recorded, and the actor exits. No committed epoch is lost: drain runs
// through the same mailbox as Advance, so it cannot overtake an epoch
// in flight. Idempotent.
func (t *Tenant) Drain() error {
	var err error
	t.drainOnce(func() {
		err = t.drainLocked()
	})
	return err
}

// drainOnce runs fn on the actor and stops the loop, exactly once.
func (t *Tenant) drainOnce(fn func()) {
	done := make(chan struct{})
	select {
	case t.cmds <- func() {
		defer close(done)
		if !t.drained {
			t.drained = true
			fn()
			close(t.quit)
		}
	}:
		<-done
		<-t.done
	case <-t.done:
	}
}

// maxDrainEpochs bounds how many boundaries a drain will commit while
// chasing pending readings, so a hostile far-future timestamp cannot
// spin the drain forever. Readings beyond the bound are abandoned
// (still counted in the channels' Pending at exit).
const maxDrainEpochs = 4096

// drainLocked flushes all in-flight readings on the actor goroutine:
// boundaries are committed one epoch at a time until every published
// reading has been polled (Poll is timestamp-gated, so each boundary
// consumes everything at or before it).
func (t *Tenant) drainLocked() error {
	for i := 0; i < maxDrainEpochs; i++ {
		pending := 0
		for _, ch := range t.chans {
			pending += ch.Pending()
		}
		if pending == 0 {
			break
		}
		if err := t.stepLocked(t.last.Add(t.epoch)); err != nil {
			return err
		}
	}
	var err error
	if t.jl != nil {
		// Clean shutdown: sync both files and stamp the catalog
		// completed, so the next boot knows no recovery is needed.
		err = t.jl.Close()
	}
	final := t.last.UnixNano()
	for _, sub := range t.subs {
		sub.final = final
		close(sub.ch)
	}
	t.subs = nil
	return err
}

// Crash abandons the tenant the way a process kill would: the actor
// stops without draining, subscribers close without a final epoch, and
// the WAL drops its userspace buffers without flushing — on disk,
// exactly the committed (fsynced) epochs survive. Test support for the
// crash-recovery harnesses; a real process kill is strictly harsher
// only in ways the torn-write battery covers by mutating the files.
func (t *Tenant) Crash() {
	t.drainOnce(func() {
		if t.jl != nil {
			t.jl.Crash()
		}
		for _, sub := range t.subs {
			sub.lost = true
			close(sub.ch)
		}
		t.subs = nil
	})
}

// Last reports the latest committed epoch boundary.
func (t *Tenant) Last() time.Time {
	var last time.Time
	err := t.do(func() error { last = t.last; return nil })
	if err != nil {
		return t.last // drained: actor state is frozen and safe to read
	}
	return last
}

// Subscription is a consumer handle on one tenant output stream.
type Subscription struct {
	t        *Tenant
	sub      *subscriber
	attached int64
}

// Attached reports the epoch committed last at the instant the
// subscriber attached: frames delivered on C are strictly after it.
func (s *Subscription) Attached() int64 { return s.attached }

// C is the frame channel; closed on drain or when kicked.
func (s *Subscription) C() <-chan wire.Data { return s.sub.ch }

// Final reports the final committed epoch (valid once C is closed by a
// drain).
func (s *Subscription) Final() int64 { return s.sub.final }

// Lost reports whether the subscriber was kicked for falling behind.
func (s *Subscription) Lost() bool { return s.sub.lost }

// Close detaches the subscription.
func (s *Subscription) Close() { s.t.unsubscribe(s.sub) }

// Stats is a tenant stats snapshot (JSON for the stats frame).
type Stats struct {
	Tenant      string `json:"tenant"`
	Epoch       string `json:"epoch"`
	LastEpoch   int64  `json:"last_epoch"`
	TuplesIn    int64  `json:"tuples_in"`
	Frames      int64  `json:"publish_frames"`
	Epochs      int64  `json:"epochs"`
	DataFrames  int64  `json:"data_frames"`
	Subscribers int    `json:"subscribers"`
	Backlog     int    `json:"backlog"`
	Dropped     int64  `json:"dropped"`
	Reconnects  int64  `json:"reconnects,omitempty"`
	Resumes     int64  `json:"resumes,omitempty"`
	DedupDrops  int64  `json:"dedup_drops,omitempty"`
	IdleKills   int64  `json:"idle_kills,omitempty"`
}

// maxCommitWallEntries bounds the commit-wall table feeding the
// commit→delivery histogram; epochs older than the window stop being
// observable, which only loses SLO samples, never correctness.
const maxCommitWallEntries = 1024

// stampCommit records the wall clock at which an epoch's frames became
// available to subscribers. Runs on the actor.
func (t *Tenant) stampCommit(epoch int64) {
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	if _, ok := t.commitWall[epoch]; ok {
		return
	}
	t.commitWall[epoch] = time.Now().UnixNano()
	t.commitQ = append(t.commitQ, epoch)
	for len(t.commitQ) > maxCommitWallEntries {
		delete(t.commitWall, t.commitQ[0])
		t.commitQ = t.commitQ[1:]
	}
}

// observeDelivery folds one subscriber delivery of an epoch into the
// commit→delivery histogram. Called from push goroutines.
func (t *Tenant) observeDelivery(epoch int64) {
	t.commitMu.Lock()
	w, ok := t.commitWall[epoch]
	t.commitMu.Unlock()
	if ok {
		t.deliveryNs.Observe(time.Duration(time.Now().UnixNano() - w))
	}
}

// Status is the ops-surface view of a tenant: Stats plus the SLO state
// /statusz tables — sessions, staleness, and the resume horizon.
type Status struct {
	Stats
	Sessions       int   `json:"sessions"`
	StalenessNs    int64 `json:"staleness_ns"`
	RetainedEpochs int   `json:"retained_epochs"`
	EvictedThrough int64 `json:"evicted_through"`
}

// Status snapshots the tenant for the ops surface.
func (t *Tenant) Status() Status {
	st := Status{Stats: t.Stats()}
	t.sessMu.Lock()
	st.Sessions = len(t.sessions)
	t.sessMu.Unlock()
	if w := t.lastCommitWall.Load(); w != 0 {
		st.StalenessNs = time.Now().UnixNano() - w
	}
	_ = t.do(func() error {
		st.RetainedEpochs = len(t.retained)
		st.EvictedThrough = t.evictedThrough
		return nil
	})
	return st
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	st := Stats{
		Tenant:     t.name,
		Epoch:      t.epoch.String(),
		TuplesIn:   t.tuplesIn.Load(),
		Frames:     t.framesIn.Load(),
		Epochs:     t.epochs.Load(),
		DataFrames: t.dataOut.Load(),
		Reconnects: t.reconnects.Load(),
		Resumes:    t.resumes.Load(),
		DedupDrops: t.dedupDrops.Load(),
		IdleKills:  t.idleKills.Load(),
	}
	for _, ch := range t.chans {
		st.Backlog += ch.Pending()
		st.Dropped += ch.Dropped()
	}
	_ = t.do(func() error {
		st.LastEpoch = t.last.UnixNano()
		st.Subscribers = len(t.subs)
		return nil
	})
	return st
}
