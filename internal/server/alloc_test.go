package server

import (
	"bufio"
	"net"
	"testing"
	"time"

	"esp/internal/stream"
	"esp/internal/wire"
)

// TestClientPublishAllocs is the client's allocation gate: a warm
// Publish/ack round trip over net.Pipe allocates nothing on the client.
// The peer is a minimal responder that reuses its own buffers, so the
// process-wide count AllocsPerRun takes is the client's alone.
func TestClientPublishAllocs(t *testing.T) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br, bw := bufio.NewReader(sc), bufio.NewWriter(sc)
		var rbuf, abuf []byte
		for seq := uint64(1); ; seq++ {
			if _, err := wire.ReadFrameBuf(br, &rbuf); err != nil {
				return
			}
			abuf = wire.Ack{Seq: seq, Pending: 3, Cap: 64}.AppendPayload(abuf[:0])
			if wire.WriteFrame(bw, wire.Frame{Type: wire.TypeAck, Payload: abuf}) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	c := newClient(cc)
	defer func() {
		c.Close()
		<-done
	}()

	ts := []stream.Tuple{
		{Ts: time.Unix(1, 0).UTC(), Values: []stream.Value{stream.String("m0"), stream.Float(20.5), stream.Bool(true)}},
		{Ts: time.Unix(2, 0).UTC(), Values: []stream.Value{stream.String("m0"), stream.Float(21), stream.Bool(false)}},
	}
	publish := func() {
		ack, err := c.Publish("m0", ts)
		if err != nil || ack.Pending != 3 {
			t.Fatalf("publish: %+v, %v", ack, err)
		}
	}
	publish() // warm: size the read and write buffers
	if n := testing.AllocsPerRun(200, publish); n != 0 {
		t.Errorf("Client.Publish round trip: %v allocs, want 0", n)
	}
}
