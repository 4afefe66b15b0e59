package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"esp/internal/telemetry"
	"esp/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (":0" picks a free port).
	Addr string
	// MetricsAddr, if non-empty, serves the telemetry exposition
	// endpoint (/metrics with per-tenant registries, /metrics.json,
	// pprof) on this address.
	MetricsAddr string
	// MaxTenants bounds hosted pipelines (default DefaultMaxTenants).
	MaxTenants int
	// WALDir, if non-empty, enables per-tenant write-ahead logging
	// under this directory (see Engine.SetWALDir). The caller decides
	// when to run boot recovery via Engine().Recover().
	WALDir string
	// IdleTimeout, if positive, is the per-connection read deadline on
	// the control frame loop: a connection that sends nothing for this
	// long is killed (counted as conn_idle_kills). Subscribers streaming
	// output are exempt — they are read-idle by design; the write
	// deadline polices them instead.
	IdleTimeout time.Duration
	// WriteTimeout, if positive, bounds every frame write. A slow or
	// half-open client whose socket stops draining is disconnected after
	// this long instead of stalling its handler goroutine indefinitely.
	WriteTimeout time.Duration
	// Logger receives connection lifecycle events (nil = silent).
	Logger *slog.Logger
	// TraceSampleN, when positive, turns the tracing plane on: one in
	// every TraceSampleN advance-driven epochs (and any client-traced
	// frame) is recorded as cross-process spans, browsable at /traces.
	// 1 traces everything; 0 leaves the plane off — the per-frame cost
	// of off is one branch on a zero trace ID.
	TraceSampleN int
	// TraceSeed seeds trace-ID minting (0 is a valid seed; IDs are
	// deterministic per (sampleN, seed) which keeps runs comparable).
	TraceSeed int64
	// SlowEpoch, when positive, is the epoch-commit duration above which
	// a tenant logs a structured slow-epoch warning carrying the epoch's
	// exemplar trace ID.
	SlowEpoch time.Duration
}

// keepAlivePeriod is the TCP keepalive probe interval on accepted and
// dialed connections — the kernel-level backstop that eventually
// surfaces half-open peers even when both deadlines are disabled.
const keepAlivePeriod = 30 * time.Second

// Server fronts an Engine with the wire protocol over TCP.
type Server struct {
	eng       *Engine
	ln        net.Listener
	log       *slog.Logger
	reg       *telemetry.Registry
	tsrv      *telemetry.Server
	tracer    *telemetry.Tracer
	conns     *telemetry.Counter
	active    *telemetry.Gauge
	idleKills *telemetry.Counter // idle kills on conns not yet bound to a tenant
	idle      time.Duration
	write     time.Duration

	mu       sync.Mutex
	open     map[net.Conn]struct{}
	draining bool

	wg     sync.WaitGroup // all connection handlers
	pushWG sync.WaitGroup // handlers streaming to a subscriber
}

// Listen binds the listener (and the metrics endpoint, if configured)
// and returns a Server ready to Serve.
func Listen(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		eng:   NewEngine(cfg.MaxTenants),
		ln:    ln,
		log:   log,
		reg:   telemetry.NewRegistry(),
		open:  make(map[net.Conn]struct{}),
		idle:  cfg.IdleTimeout,
		write: cfg.WriteTimeout,
	}
	if cfg.WALDir != "" {
		s.eng.SetWALDir(cfg.WALDir)
	}
	if cfg.TraceSampleN > 0 {
		s.tracer = telemetry.NewTracer(cfg.TraceSampleN, cfg.TraceSeed)
		s.eng.SetTracer(s.tracer)
	}
	s.eng.SetLogger(log)
	s.eng.SetSlowEpoch(cfg.SlowEpoch)
	s.conns = s.reg.Counter("server_conns")
	s.active = s.reg.Gauge("server_conns_active")
	s.idleKills = s.reg.Counter("conn_idle_kills")
	s.reg.GaugeFunc("server_tenants", func() int64 {
		return int64(len(s.eng.Tenants()))
	})
	s.reg.Gauge("build_info").Set(1)
	s.reg.Describe("build_info", "constant 1; the exposition prefix carries the build identity")
	if cfg.MetricsAddr != "" {
		tsrv, err := telemetry.Serve(cfg.MetricsAddr, telemetry.ServerConfig{
			Registry: s.reg,
			More:     s.eng.Registries,
			Tracer:   s.tracer,
			Mounts:   s.opsMounts(),
		})
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.tsrv = tsrv
	}
	return s, nil
}

// Tracer reports the server's span recorder (nil when tracing is off).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// Engine exposes the underlying engine (tests and embedded use).
func (s *Server) Engine() *Engine { return s.eng }

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// MetricsURL reports the telemetry endpoint base URL ("" if disabled).
func (s *Server) MetricsURL() string {
	if s.tsrv == nil {
		return ""
	}
	return s.tsrv.URL()
}

// Serve accepts connections until Shutdown (or a fatal listener
// error). It always returns a non-nil error; after Shutdown the error
// is net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		setKeepAlive(conn)
		s.conns.Add(1)
		s.active.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.active.Add(-1)
			s.handle(conn)
		}()
	}
}

// Shutdown drains the daemon gracefully: stop accepting, drain every
// tenant (committing in-flight epochs and sending subscribers their
// Drain frames), close remaining connections, and stop the telemetry
// endpoint last — in that order, so committed output reaches
// subscribers before their sockets die and the final counters stay
// scrapeable until everything else is down. ctx bounds the wait for
// connection handlers to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.ln.Close()
	drainErr := s.eng.DrainAll()

	// Tenant drains closed every subscription channel; subscriber
	// handlers flush their buffered epochs and Drain frames, then exit.
	// Wait for those (bounded by ctx) BEFORE touching any socket, so
	// committed output is never cut off by the close below.
	pushed := make(chan struct{})
	go func() {
		s.pushWG.Wait()
		close(pushed)
	}()
	select {
	case <-pushed:
	case <-ctx.Done():
	}

	// The rest are idle control connections parked in ReadFrame (or
	// subscribers past their deadline): close their sockets to unblock
	// the handlers, then wait for all of them.
	s.mu.Lock()
	for c := range s.open {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()

	if s.tsrv != nil {
		if err := s.tsrv.Shutdown(ctx); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

// setKeepAlive arms TCP keepalive on a connection (no-op for other
// conn types, e.g. net.Pipe in tests).
func setKeepAlive(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
}

// forget removes a finished connection from the open set.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.open, conn)
	s.mu.Unlock()
}

// handle runs one connection's frame loop.
func (s *Server) handle(conn net.Conn) {
	defer s.forget(conn)
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var tenant *Tenant // bound by hello (or per-frame tenant fields)
	var sessID string  // bound by a session hello: publishes dedup via the session
	// The connection's reused buffers: every frame is read into rbuf (its
	// payload, and a publish's Raw tuple bytes, alias it until the next
	// read), every publish decoded into dec's scratch (valid until the
	// next publish; the channel copies the tuples out) and every ack
	// encoded into abuf.
	var rbuf, abuf []byte
	var dec wire.Decoder

	reply := func(f wire.Frame) bool {
		if s.write > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.write))
		}
		if err := wire.WriteFrame(bw, f); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	replyAck := func(ack wire.Ack) bool {
		abuf = ack.AppendPayload(abuf[:0])
		return reply(wire.Frame{Type: wire.TypeAck, Payload: abuf})
	}
	fail := func(format string, args ...any) bool {
		if tenant != nil {
			tenant.rpcErrors.Add(1)
		}
		return reply(wire.Errorf(format, args...))
	}

	for {
		if s.idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idle))
		}
		f, err := wire.ReadFrameBuf(br, &rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The control loop went quiet past the idle deadline:
				// kill the connection rather than hold its handler (and
				// any half-open peer's socket) forever.
				if tenant != nil {
					tenant.idleKills.Add(1)
				} else {
					s.idleKills.Add(1)
				}
				s.log.Debug("conn idle-killed", "remote", conn.RemoteAddr())
				return
			}
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.log.Debug("conn closed", "err", err)
			}
			return
		}
		switch f.Type {
		case wire.TypeHello:
			h, err := wire.DecodeHello(f)
			if err != nil {
				fail("bad hello: %v", err)
				return
			}
			if h.Tenant != "" {
				t, ok := s.eng.Tenant(h.Tenant)
				if !ok {
					if !fail("no such tenant %q", h.Tenant) {
						return
					}
					continue
				}
				tenant = t
			}
			ack := wire.Ack{}
			if h.Session != "" {
				if tenant == nil {
					if !fail("session hello needs a tenant") {
						return
					}
					continue
				}
				lastSeq, lastEpoch, err := tenant.AttachSession(h.Session)
				if err != nil {
					if !fail("%v", err) {
						return
					}
					continue
				}
				// The resume ack tells the reconnecting client where the
				// server actually is: its session's last applied publish
				// seq and the tenant's last committed epoch.
				sessID = h.Session
				ack.Seq = lastSeq
				ack.Epoch = lastEpoch
			}
			if !replyAck(ack) {
				return
			}

		case wire.TypeCreate:
			m, err := wire.DecodeCreate(f)
			if err != nil {
				fail("bad create: %v", err)
				return
			}
			t, err := s.eng.Create(m.Tenant, m.Spec)
			if err != nil {
				if !fail("%v", err) {
					return
				}
				continue
			}
			tenant = t
			s.log.Info("tenant created", "tenant", m.Tenant)
			if !replyAck(wire.Ack{}) {
				return
			}

		case wire.TypePublish:
			m, err := dec.Publish(f)
			if err != nil {
				fail("bad publish: %v", err)
				return
			}
			if tenant == nil {
				if !fail("publish before hello") {
					return
				}
				continue
			}
			tenant.rpcPublish.Add(1)
			t0 := time.Now()
			ack, err := tenant.publish(sessID, m)
			tenant.rpcPublishNs.Observe(time.Since(t0))
			if err != nil {
				if !fail("%v", err) {
					return
				}
				continue
			}
			ack.Seq = m.Seq
			if !replyAck(ack) {
				return
			}

		case wire.TypeAdvance:
			m, err := wire.DecodeAdvance(f)
			if err != nil {
				fail("bad advance: %v", err)
				return
			}
			if tenant == nil {
				if !fail("advance before hello") {
					return
				}
				continue
			}
			tenant.rpcAdvance.Add(1)
			t0 := time.Now()
			err = tenant.AdvanceTraced(time.Unix(0, m.Now).UTC(), m.TraceID)
			tenant.rpcAdvanceNs.Observe(time.Since(t0))
			if err != nil {
				if !fail("%v", err) {
					return
				}
				continue
			}
			if !replyAck(wire.Ack{Seq: m.Seq}) {
				return
			}

		case wire.TypeSubscribe:
			m, err := wire.DecodeSubscribe(f)
			if err != nil {
				fail("bad subscribe: %v", err)
				return
			}
			t := tenant
			if m.Tenant != "" {
				tt, ok := s.eng.Tenant(m.Tenant)
				if !ok {
					if !fail("no such tenant %q", m.Tenant) {
						return
					}
					continue
				}
				t = tt
			}
			if t == nil {
				if !fail("subscribe before hello") {
					return
				}
				continue
			}
			t.rpcSubscribe.Add(1)
			sub, backlog, err := t.ResumeSubscribe(m.Stream, m.FromEpoch)
			if err != nil {
				if !fail("%v", err) {
					return
				}
				continue
			}
			// Register as a pushing handler so Shutdown lets this
			// connection flush before closing sockets — before the ack,
			// so a Shutdown the client issues after Subscribe returns
			// always waits for it. If a shutdown is already past its
			// pushWG.Wait, skip registration (Add would race the Wait) —
			// the stream is cut short, which is fine for a subscription
			// that raced the shutdown itself.
			s.mu.Lock()
			tracked := !s.draining
			if tracked {
				s.pushWG.Add(1)
			}
			s.mu.Unlock()
			if tracked {
				defer s.pushWG.Done()
			}
			// The ack's Epoch is the attach point: the client's resume
			// cursor until the first Data frame lands.
			if !replyAck(wire.Ack{Epoch: sub.Attached()}) {
				sub.Close()
				return
			}
			// Catch-up: epochs committed after the client's cursor are
			// replayed before live frames. The subscriber was attached in
			// the same actor command that snapshotted the backlog, so live
			// frames (buffered in the channel meanwhile) continue exactly
			// where the backlog ends — no gap, no duplicate.
			for _, d := range backlog {
				if !reply(d.Frame()) {
					sub.Close()
					return
				}
			}
			s.push(conn, br, bw, t, sub)
			return

		case wire.TypeStats:
			if tenant == nil {
				if !fail("stats before hello") {
					return
				}
				continue
			}
			tenant.rpcStats.Add(1)
			b, _ := json.Marshal(tenant.Stats())
			if !reply(wire.Frame{Type: wire.TypeStats, Payload: b}) {
				return
			}

		default:
			if !fail("unexpected frame %s", f.Type) {
				return
			}
		}
	}
}

// push streams a subscription's Data frames until the subscription
// closes (drain or kicked) or the client goes away. The reader side is
// watched concurrently so a dropped client releases its subscriber
// slot instead of buffering until kicked.
func (s *Server) push(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, t *Tenant, sub *Subscription) {
	// A subscriber is legitimately read-idle: lift the control loop's
	// idle deadline so the watcher goroutine blocks indefinitely. The
	// write deadline below is what polices a half-open subscriber.
	_ = conn.SetReadDeadline(time.Time{})
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		for {
			if _, err := wire.ReadFrame(br); err != nil {
				return
			}
			// Frames from a subscriber are ignored.
		}
	}()
	defer sub.Close()
	deadline := func() {
		if s.write > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.write))
		}
	}
	for {
		select {
		case d, ok := <-sub.C():
			if !ok {
				deadline()
				if sub.Lost() {
					_ = wire.WriteFrame(bw, wire.Errorf("subscriber fell behind; kicked"))
				} else {
					_ = wire.WriteFrame(bw, wire.Drain{FinalEpoch: sub.Final()}.Frame())
				}
				_ = bw.Flush()
				return
			}
			deadline()
			t0 := time.Now()
			if err := wire.WriteFrame(bw, d.Frame()); err != nil {
				s.kickIfStalled(t, err)
				return
			}
			if len(sub.C()) == 0 {
				if err := bw.Flush(); err != nil {
					s.kickIfStalled(t, err)
					return
				}
			}
			t.observeDelivery(d.Epoch)
			if d.TraceID != 0 {
				s.tracer.Record(telemetry.SpanRecord{
					TraceID: telemetry.TraceID(d.TraceID), Name: "subscriber.deliver",
					Tenant: t.Name(), Detail: d.Stream, Epoch: d.Epoch,
					Start: t0, DurNs: int64(time.Since(t0)), Out: int64(len(d.Tuples)),
				})
			}
		case <-gone:
			return
		}
	}
}

// kickIfStalled counts a push-side write-deadline disconnect: the
// subscriber's socket stopped draining (slow consumer or half-open
// peer), so the handler gave up on it rather than block. Kicks surface
// in the same serve_subscribers_kicked counter as buffer-overflow
// kicks — both mean "consumer could not keep up and was cut loose".
func (s *Server) kickIfStalled(t *Tenant, err error) {
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.subKicked.Add(1)
		s.log.Debug("subscriber write stalled; kicked", "tenant", t.Name())
	}
}

// String describes the server.
func (s *Server) String() string {
	return fmt.Sprintf("espd on %s (%d tenants)", s.Addr(), len(s.eng.Tenants()))
}
