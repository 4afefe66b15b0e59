package server

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"esp/internal/stream"
	"esp/internal/wal"
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

// allocSpec hosts the two tuple shapes the serving benchmark publishes:
// a mote reporting one float, and an RFID reader reporting a tag and a
// checksum flag.
func allocSpec() []byte {
	return []byte(`{
	  "deployment": {
	    "epoch": "1s",
	    "groups": {
	      "lab": {"type": "mote", "members": ["m0"]},
	      "shelf0": {"type": "rfid", "members": ["reader0"]}
	    },
	    "pipelines": {
	      "mote": {"smooth": "SELECT avg(temp) AS temp FROM smooth_input [Range By '2 sec']"},
	      "rfid": {
	        "point": "SELECT tag_id FROM point_input WHERE checksum_ok = TRUE",
	        "smooth": "SELECT tag_id, count(*) AS n FROM smooth_input [Range By '2 sec'] GROUP BY tag_id"
	      }
	    }
	  },
	  "receptors": [
	    {"id": "m0", "type": "mote", "schema": "temp:float"},
	    {"id": "reader0", "type": "rfid", "schema": "tag_id:string,checksum_ok:bool"}
	  ]
	}`)
}

// allocFrames are one publish frame per allocSpec receptor, each with
// readings due at the first epoch boundary.
func allocFrames() []allocFrame {
	return []allocFrame{
		{"temp:float", wire.Publish{Receptor: "m0", Seq: 1, Tuples: []stream.Tuple{
			{Ts: at(0.25), Values: []stream.Value{stream.Float(20.5)}},
			{Ts: at(0.5), Values: []stream.Value{stream.Float(21)}},
		}}},
		{"tag_id:string,checksum_ok:bool", wire.Publish{Receptor: "reader0", Seq: 1, Tuples: []stream.Tuple{
			{Ts: at(0.25), Values: []stream.Value{stream.String("tag-1"), stream.Bool(true)}},
			{Ts: at(0.5), Values: []stream.Value{stream.String("tag-2"), stream.Bool(false)}},
		}}},
	}
}

// allocFrame is one allocation-gate frame, named by its schema.
type allocFrame struct {
	name string
	m    wire.Publish
}

// TestServerPublishAllocs is the served ingest path's allocation gate:
// a warm publish frame through Server.handle — decode, admission check,
// journal (WAL on, NoSync), channel copy and ack — allocates nothing.
// The peer is a raw frame writer over net.Pipe that reuses its buffers,
// so the process-wide count is the server's. Both channel slabs are
// sized first by publishing more frames than the measurement sends and
// polling them out with two advances.
func TestServerPublishAllocs(t *testing.T) {
	s, err := Listen(Config{Addr: "127.0.0.1:0", WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Engine().SetWALNoSync(true)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if _, err := s.Engine().Create("allocs", allocSpec()); err != nil {
		t.Fatal(err)
	}
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handle(sc)
	}()
	defer func() {
		cc.Close()
		<-done
	}()
	br, bw := bufio.NewReader(cc), bufio.NewWriter(cc)
	var rbuf []byte
	roundTrip := func(f wire.Frame) {
		if err := wire.WriteFrame(bw, f); err != nil || bw.Flush() != nil {
			t.Fatalf("write: %v", err)
		}
		r, err := wire.ReadFrameBuf(br, &rbuf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if r.Type != wire.TypeAck {
			m, _ := wire.DecodeError(r)
			t.Fatalf("reply %s: %s", r.Type, m.Msg)
		}
	}
	roundTrip(wire.Hello{Tenant: "allocs", Role: "publish"}.Frame())
	const runs = 200
	for _, af := range allocFrames() {
		name, m := af.name, af.m
		t.Run(name, func(t *testing.T) {
			f := m.Frame()
			for sec := 1; sec <= 2; sec++ {
				for i := 0; i < runs+50; i++ {
					roundTrip(f)
				}
				roundTrip(wire.Advance{Seq: 1, Now: at(float64(sec)).UnixNano()}.Frame())
			}
			if n := testing.AllocsPerRun(runs, func() { roundTrip(f) }); n != 0 {
				t.Errorf("served publish of %d %s tuples: %v allocs, want 0", len(m.Tuples), name, n)
			}
		})
	}
}

// TestReplayPublishAllocs is boot replay's allocation gate: a warm
// replay of one journal record — decode from the record's raw bytes
// into the replay decoder's scratch, admission check, channel copy —
// allocates nothing.
func TestReplayPublishAllocs(t *testing.T) {
	ten, err := NewEngine(0).Create("allocs", allocSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer ten.Drain() //nolint:errcheck
	for _, af := range allocFrames() {
		name, m := af.name, af.m
		t.Run(name, func(t *testing.T) {
			p := wal.Publish{Receptor: m.Receptor, Raw: wire.AppendTuples(nil, m.Tuples), Count: len(m.Tuples)}
			ch := ten.chans[m.Receptor]
			var dec wire.Decoder
			replay := func() {
				if n, err := ten.replayPublish(&dec, p); err != nil || n != len(m.Tuples) {
					t.Fatalf("replayed %d tuples, %v", n, err)
				}
				if got := len(ch.Poll(at(1))); got != len(m.Tuples) {
					t.Fatalf("polled %d tuples", got)
				}
			}
			replay() // warm: size the scratch and both channel slabs
			replay()
			if n := testing.AllocsPerRun(100, replay); n != 0 {
				t.Errorf("replay of a %s record: %v allocs, want 0", name, n)
			}
		})
	}
}
