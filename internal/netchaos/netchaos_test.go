package netchaos

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(c, c); c.Close() }() //nolint:errcheck
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func proxyFor(t *testing.T, ln net.Listener) *Proxy {
	t.Helper()
	p, err := Listen(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialEcho(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// dialLive dials through the proxy and does one echo round trip, so the
// link is registered with the proxy before the caller injects a fault:
// the dial returns once the kernel completes the handshake, possibly
// before the proxy has accepted and dialled upstream, and faults apply
// only to links live at the call.
func dialLive(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c := dialEcho(t, p)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPassthrough(t *testing.T) {
	p := proxyFor(t, echoServer(t))
	c := dialEcho(t, p)
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if st := p.Stats(); st.Accepted != 1 || st.Killed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKillAll(t *testing.T) {
	p := proxyFor(t, echoServer(t))
	c := dialLive(t, p)
	p.KillAll()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a killed link")
	}
	if st := p.Stats(); st.Killed != 1 {
		t.Fatalf("killed = %d, want 1", st.Killed)
	}
	// The next connection is clean.
	c2 := dialEcho(t, p)
	if _, err := c2.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c2, make([]byte, 1)); err != nil {
		t.Fatalf("fresh link after kill: %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	p := proxyFor(t, echoServer(t))
	c := dialLive(t, p)
	p.Partition()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded across a partition")
	}
	// New connections are refused (accepted then immediately closed).
	c2 := dialEcho(t, p)
	c2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded on a partitioned dial")
	}
	p.Heal()
	c3 := dialEcho(t, p)
	if _, err := c3.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c3, make([]byte, 1)); err != nil {
		t.Fatalf("healed link: %v", err)
	}
}

func TestTruncateTearsMidChunk(t *testing.T) {
	p := proxyFor(t, echoServer(t))
	c := dialLive(t, p)
	p.TruncateAll(3)
	if _, err := c.Write([]byte("abcdefgh")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(c) // reads until the killed link closes
	if len(got) > 3 {
		t.Fatalf("read %q past the 3-byte budget", got)
	}
	if st := p.Stats(); st.Killed != 1 {
		t.Fatalf("killed = %d, want 1", st.Killed)
	}
}

func TestStallIsHalfOpen(t *testing.T) {
	p := proxyFor(t, echoServer(t))
	c := dialEcho(t, p)
	p.Stall()
	if _, err := c.Write([]byte("q")); err != nil {
		t.Fatal(err) // write lands in kernel buffers; the socket is open
	}
	c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("stalled link delivered data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("stalled read failed with %v, want timeout (socket must stay open)", err)
	}
	p.Resume()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatalf("resumed link: %v", err)
	}
}
