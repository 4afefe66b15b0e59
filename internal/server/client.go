package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"esp/internal/stream"
	"esp/internal/telemetry"
	"esp/internal/wire"
)

// Client is a wire-protocol client for espd: the loadgen's and the
// tests' view of the daemon. One client wraps one connection; use
// separate clients for publishing and subscribing (a subscribed
// connection switches to server-push).
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	seq  uint64

	// rbuf holds the last frame read (a reply's payload aliases it until
	// the next read) and wbuf the payload being encoded: reused across
	// calls, so a steady-state publish round trip allocates nothing.
	rbuf, wbuf []byte

	// tracer, when set, originates trace contexts: sampled publishes
	// and advances carry a minted trace ID on the wire and record
	// client-side spans (round-trip latency) beside the server's.
	tracer *telemetry.Tracer

	// subscribedConn marks a connection that has switched to
	// server-push (set by ResilientClient to know whether a fresh
	// connection still needs its subscription replayed).
	subscribedConn bool
}

// Dial connects to an espd address with TCP keepalive armed.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	setKeepAlive(conn)
	return newClient(conn), nil
}

// newClient wraps an established connection.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ServerError is a protocol-level Error frame from the daemon. It is
// deterministic — resending the same frame gets the same answer — so
// retry layers must not treat it as a transport fault.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "server: " + e.Msg }

// SetTracer attaches a span recorder: sampled publishes and advances
// mint a trace ID, send it on the wire, and record client.publish /
// client.advance spans; Next records client.deliver for Data frames
// carrying a trace. A nil tracer (the default) costs one nil check per
// call.
func (c *Client) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

// SetReadDeadline bounds blocking reads (zero time clears it) — used by
// consumers of an external daemon that cannot force a drain.
func (c *Client) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// SetDeadline bounds both directions of the next I/O (zero time clears
// it) — the per-call timeout hook for retry layers.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// roundTrip sends one frame and reads the reply, surfacing protocol
// errors as Go errors. The reply's payload aliases the client's read
// buffer: decode it before the next call.
func (c *Client) roundTrip(f wire.Frame) (wire.Frame, error) {
	if err := wire.WriteFrame(c.bw, f); err != nil {
		return wire.Frame{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return wire.Frame{}, err
	}
	r, err := wire.ReadFrameBuf(c.br, &c.rbuf)
	if err != nil {
		return wire.Frame{}, err
	}
	if r.Type == wire.TypeError {
		em, derr := wire.DecodeError(r)
		if derr != nil {
			return wire.Frame{}, fmt.Errorf("server error (undecodable: %v)", derr)
		}
		return wire.Frame{}, &ServerError{Msg: em.Msg}
	}
	return r, nil
}

// Hello binds the connection to a tenant. On failure the underlying
// connection is closed — a client that cannot complete its handshake
// has no protocol state worth keeping, and callers that bail on the
// error would otherwise leak the socket.
func (c *Client) Hello(tenant, role string) error {
	_, err := c.roundTrip(wire.Hello{Tenant: tenant, Role: role}.Frame())
	if err != nil {
		c.conn.Close()
	}
	return err
}

// HelloSession binds the connection to a tenant under a resumable
// session identity. The ack carries the server's view of the session —
// Seq is the last publish seq the server applied for it, Epoch the
// tenant's last committed epoch — which is what a reconnecting client
// needs to decide what to re-send. Closes the connection on failure,
// like Hello.
func (c *Client) HelloSession(tenant, role, session string, resumeEpoch int64) (wire.Ack, error) {
	r, err := c.roundTrip(wire.Hello{Tenant: tenant, Role: role, Session: session, ResumeEpoch: resumeEpoch}.Frame())
	if err != nil {
		c.conn.Close()
		return wire.Ack{}, err
	}
	ack, err := wire.DecodeAck(r)
	if err != nil {
		c.conn.Close()
		return wire.Ack{}, err
	}
	return ack, nil
}

// Create submits a pipeline spec and binds the connection to the new
// tenant.
func (c *Client) Create(tenant string, spec []byte) error {
	_, err := c.roundTrip(wire.Create{Tenant: tenant, Spec: spec}.Frame())
	return err
}

// Publish delivers readings for one receptor and returns the server's
// backpressure ack.
func (c *Client) Publish(receptorID string, ts []stream.Tuple) (wire.Ack, error) {
	c.seq++
	return c.PublishSeq(receptorID, c.seq, ts)
}

// PublishSeq is Publish with a caller-chosen sequence number — the
// resume hook: a reconnecting session re-sends its in-flight publish
// under the same seq so the server can deduplicate it.
func (c *Client) PublishSeq(receptorID string, seq uint64, ts []stream.Tuple) (wire.Ack, error) {
	m := wire.Publish{Receptor: receptorID, Seq: seq, Tuples: ts}
	var t0 time.Time
	if id, ok := c.tracer.Sample(); ok {
		m.TraceID = uint64(id)
		t0 = time.Now()
	}
	c.wbuf = m.AppendPayload(c.wbuf[:0])
	r, err := c.roundTrip(wire.Frame{Type: wire.TypePublish, Payload: c.wbuf})
	if m.TraceID != 0 {
		c.tracer.Record(telemetry.SpanRecord{
			TraceID: telemetry.TraceID(m.TraceID), Name: "client.publish",
			Detail: receptorID, Start: t0, DurNs: int64(time.Since(t0)), In: int64(len(ts)),
		})
	}
	if err != nil {
		return wire.Ack{}, err
	}
	ack, err := wire.DecodeAck(r)
	if err != nil {
		return wire.Ack{}, err
	}
	if ack.Seq != seq {
		return ack, fmt.Errorf("server acked seq %d, want %d", ack.Seq, seq)
	}
	return ack, nil
}

// Advance commits every epoch boundary up to now and returns once the
// server has flushed them — the client-side epoch barrier.
func (c *Client) Advance(now time.Time) error {
	c.seq++
	return c.AdvanceSeq(c.seq, now)
}

// AdvanceSeq is Advance with a caller-chosen sequence number (see
// PublishSeq). Advancing is naturally idempotent — boundaries at or
// before the last committed epoch are no-ops — so replaying one after
// a reconnect is safe regardless of whether the original landed.
func (c *Client) AdvanceSeq(seq uint64, now time.Time) error {
	m := wire.Advance{Seq: seq, Now: now.UnixNano()}
	var t0 time.Time
	if id, ok := c.tracer.Sample(); ok {
		m.TraceID = uint64(id)
		t0 = time.Now()
	}
	r, err := c.roundTrip(m.Frame())
	if m.TraceID != 0 {
		c.tracer.Record(telemetry.SpanRecord{
			TraceID: telemetry.TraceID(m.TraceID), Name: "client.advance",
			Epoch: m.Now, Start: t0, DurNs: int64(time.Since(t0)),
		})
	}
	if err != nil {
		return err
	}
	ack, err := wire.DecodeAck(r)
	if err != nil {
		return err
	}
	if ack.Seq != seq {
		return fmt.Errorf("server acked seq %d, want %d", ack.Seq, seq)
	}
	return nil
}

// Stats fetches the tenant's stats snapshot.
func (c *Client) Stats() (Stats, error) {
	r, err := c.roundTrip(wire.Frame{Type: wire.TypeStats})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal(r.Payload, &st); err != nil {
		return Stats{}, err
	}
	return st, nil
}

// Subscribe attaches the connection to a tenant output stream. After a
// successful subscribe the connection is server-push: consume with
// Next until it reports done.
func (c *Client) Subscribe(tenant, streamName string) error {
	_, err := c.SubscribeFrom(tenant, streamName, 0)
	return err
}

// SubscribeFrom subscribes with a resume cursor: committed epochs
// strictly after fromEpoch are replayed before live frames. fromEpoch 0
// is a plain live-only subscribe; negative resumes from genesis. The
// returned epoch is the attach point — the tenant's last committed
// epoch at the instant the subscription took effect — which is the
// cursor to resume from while no Data frame has arrived yet.
func (c *Client) SubscribeFrom(tenant, streamName string, fromEpoch int64) (int64, error) {
	r, err := c.roundTrip(wire.Subscribe{Tenant: tenant, Stream: streamName, FromEpoch: fromEpoch}.Frame())
	if err != nil {
		return 0, err
	}
	ack, err := wire.DecodeAck(r)
	if err != nil {
		return 0, err
	}
	return ack.Epoch, nil
}

// Next reads the next Data frame on a subscribed connection. done
// reports a graceful end of stream (Drain received; final is its
// committed epoch).
func (c *Client) Next() (d wire.Data, final int64, done bool, err error) {
	for {
		f, rerr := wire.ReadFrameBuf(c.br, &c.rbuf)
		if rerr != nil {
			return wire.Data{}, 0, false, rerr
		}
		switch f.Type {
		case wire.TypeData:
			d, err := wire.DecodeData(f)
			if err == nil && d.TraceID != 0 {
				c.tracer.Record(telemetry.SpanRecord{
					TraceID: telemetry.TraceID(d.TraceID), Name: "client.deliver",
					Detail: d.Stream, Epoch: d.Epoch, Start: time.Now(), Out: int64(len(d.Tuples)),
				})
			}
			return d, 0, false, err
		case wire.TypeDrain:
			dr, derr := wire.DecodeDrain(f)
			return wire.Data{}, dr.FinalEpoch, true, derr
		case wire.TypeError:
			em, derr := wire.DecodeError(f)
			if derr != nil {
				return wire.Data{}, 0, false, fmt.Errorf("server error (undecodable: %v)", derr)
			}
			return wire.Data{}, 0, false, &ServerError{Msg: em.Msg}
		default:
			// Ignore unexpected frame types on the push stream.
		}
	}
}
