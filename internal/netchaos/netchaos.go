// Package netchaos is an in-process TCP fault injector: a proxy that
// pipes client connections to a target address and breaks them on
// command — connection resets, byte-level truncation (torn frames),
// half-open stalls, and full partitions — so resilience harnesses can
// exercise real sockets dying at controlled points without kernel
// privileges or external tooling. All fault injection is explicit and
// synchronous: the harness decides exactly when links die, which keeps
// chaos runs reproducible.
package netchaos

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// noTruncate is the per-link byte budget meaning "unlimited".
const noTruncate = int64(1) << 62

// Proxy is one chaos proxy instance. Faults apply to the links live at
// the moment of the call; connections made afterwards are clean (until
// the next fault), except under Partition, which also refuses new
// connections until Heal.
type Proxy struct {
	ln     net.Listener
	target string

	mu          sync.Mutex
	links       map[*link]struct{}
	partitioned bool
	stall       chan struct{} // non-nil while stalled; closed by Resume
	closed      bool

	latency  atomic.Int64 // added delay per forwarded chunk, ns
	accepted atomic.Int64
	killed   atomic.Int64 // links killed by fault injection

	wg sync.WaitGroup
}

// Stats is a snapshot of the proxy's fault accounting.
type Stats struct {
	Accepted int64 // connections accepted
	Killed   int64 // links killed by fault injection
	Live     int   // links currently forwarding
}

// Listen starts a proxy on a free loopback port, forwarding to target.
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, links: make(map[*link]struct{})}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the proxy's listen address — what clients dial instead of
// the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the fault accounting.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	live := len(p.links)
	p.mu.Unlock()
	return Stats{Accepted: p.accepted.Load(), Killed: p.killed.Load(), Live: live}
}

// Close kills every link and stops accepting. The proxy is done when
// Close returns.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	if p.stall != nil {
		close(p.stall)
		p.stall = nil
	}
	links := p.snapshotLocked()
	p.mu.Unlock()
	err := p.ln.Close()
	for _, l := range links {
		l.kill(false)
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) snapshotLocked() []*link {
	out := make([]*link, 0, len(p.links))
	for l := range p.links {
		out = append(out, l)
	}
	return out
}

// KillAll resets every live link — both sockets close mid-whatever
// they were doing, the bluntest fault a network can deal.
func (p *Proxy) KillAll() {
	p.mu.Lock()
	links := p.snapshotLocked()
	p.mu.Unlock()
	for _, l := range links {
		l.kill(true)
	}
}

// TruncateAll lets each live link forward at most n more bytes in each
// direction, then kills it — a frame torn mid-payload, the fault the
// wire decoder's diagnostics exist for.
func (p *Proxy) TruncateAll(n int64) {
	p.mu.Lock()
	links := p.snapshotLocked()
	p.mu.Unlock()
	for _, l := range links {
		l.c2t.Store(n)
		l.t2c.Store(n)
	}
}

// Stall freezes forwarding on every link, current and future, without
// closing any socket — the half-open failure: peers see an open
// connection that never delivers. Resume unfreezes; a killed link
// stops waiting.
func (p *Proxy) Stall() {
	p.mu.Lock()
	if p.stall == nil {
		p.stall = make(chan struct{})
	}
	p.mu.Unlock()
}

// Resume lifts a Stall.
func (p *Proxy) Resume() {
	p.mu.Lock()
	if p.stall != nil {
		close(p.stall)
		p.stall = nil
	}
	p.mu.Unlock()
}

// Partition kills every live link and refuses new connections until
// Heal — the network is simply gone.
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.mu.Unlock()
	p.KillAll()
}

// Heal lifts a Partition.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// SetLatency adds a fixed delay to every forwarded chunk (0 clears).
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepted.Add(1)
		p.mu.Lock()
		refuse := p.partitioned || p.closed
		p.mu.Unlock()
		if refuse {
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		l := &link{p: p, client: conn, upstream: up, dead: make(chan struct{})}
		l.c2t.Store(noTruncate)
		l.t2c.Store(noTruncate)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			continue
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go l.pipe(up, conn, &l.c2t)
		go l.pipe(conn, up, &l.t2c)
	}
}

// link is one proxied connection: the client-side socket, the
// upstream socket, and per-direction truncation budgets.
type link struct {
	p        *Proxy
	client   net.Conn
	upstream net.Conn
	c2t      atomic.Int64 // client→target byte budget
	t2c      atomic.Int64 // target→client byte budget
	dead     chan struct{}
	killOnce sync.Once
}

// kill closes both sockets, once. The first kill of a link by fault
// injection (fault) counts in Stats.Killed, before the sockets close, so
// a peer that sees its connection die already sees it counted.
func (l *link) kill(fault bool) {
	l.killOnce.Do(func() {
		if fault {
			l.p.killed.Add(1)
		}
		close(l.dead)
		l.client.Close()
		l.upstream.Close()
	})
}

// pipe forwards src→dst, honoring stalls, latency, and the direction's
// truncation budget. Either direction ending ends the link: the wire
// protocol is request/reply or server-push, and a half-dead link is a
// dead link for both.
func (l *link) pipe(dst, src net.Conn, budget *atomic.Int64) {
	defer l.p.wg.Done()
	defer l.finish()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !l.waitStall() {
				return
			}
			if d := time.Duration(l.p.latency.Load()); d > 0 {
				select {
				case <-time.After(d):
				case <-l.dead:
					return
				}
			}
			chunk := buf[:n]
			rem := budget.Add(-int64(n))
			if rem < 0 {
				// Budget exhausted mid-chunk: forward the allowed prefix
				// (tearing the frame), then die.
				keep := int64(n) + rem
				if keep > 0 {
					_, _ = dst.Write(chunk[:keep])
				}
				l.kill(true)
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// waitStall blocks while the proxy is stalled; false means the link
// died while waiting.
func (l *link) waitStall() bool {
	l.p.mu.Lock()
	ch := l.p.stall
	l.p.mu.Unlock()
	if ch == nil {
		return true
	}
	select {
	case <-ch:
		return true
	case <-l.dead:
		return false
	}
}

// finish closes the link (idempotent) and removes it from the proxy.
func (l *link) finish() {
	l.kill(false)
	l.p.mu.Lock()
	delete(l.p.links, l)
	l.p.mu.Unlock()
}
