package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"esp/internal/stream"
	"esp/internal/wire"
)

// testSpec is a two-reader RFID shelf deployment: Point filters bad
// checksums, Smooth counts per tag over 5 s, Arbitrate picks the
// majority shelf — the paper's running example, served.
func testSpec(extra string) []byte {
	return []byte(`{
	  "deployment": {
	    "epoch": "1s",
	    "groups": {
	      "shelf0": {"type": "rfid", "members": ["reader0"]},
	      "shelf1": {"type": "rfid", "members": ["reader1"]}
	    },
	    "pipelines": {
	      "rfid": {
	        "point": "SELECT tag_id FROM point_input WHERE checksum_ok = TRUE",
	        "smooth": "SELECT tag_id, count(*) AS n FROM smooth_input [Range By '5 sec'] GROUP BY tag_id",
	        "arbitrate": "SELECT spatial_granule, tag_id FROM arb ai1 [Range By 'NOW'] GROUP BY spatial_granule, tag_id HAVING sum(n) >= ALL(SELECT sum(n) FROM arb ai2 [Range By 'NOW'] WHERE ai1.tag_id = ai2.tag_id GROUP BY spatial_granule)"
	      }
	    }
	  },
	  "receptors": [
	    {"id": "reader0", "type": "rfid", "schema": "tag_id:string,checksum_ok:bool"},
	    {"id": "reader1", "type": "rfid", "schema": "tag_id:string,checksum_ok:bool"}
	  ]` + extra + `
	}`)
}

func at(sec float64) time.Time {
	return time.Unix(0, int64(sec*float64(time.Second))).UTC()
}

func read(sec float64, tag string, ok bool) stream.Tuple {
	return stream.Tuple{Ts: at(sec), Values: []stream.Value{stream.String(tag), stream.Bool(ok)}}
}

// startServer brings up a TCP server (and optionally metrics) for one
// test, with Shutdown on cleanup.
func startServer(t *testing.T, metrics bool) *Server {
	t.Helper()
	cfg := Config{Addr: "127.0.0.1:0"}
	if metrics {
		cfg.MetricsAddr = "127.0.0.1:0"
	}
	s, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve() //nolint:errcheck
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerLifecycle(t *testing.T) {
	s := startServer(t, false)
	ctl := dial(t, s)
	if err := ctl.Create("acme", testSpec("")); err != nil {
		t.Fatal(err)
	}

	// Subscribe on a second connection before any data flows.
	subc := dial(t, s)
	if err := subc.Subscribe("acme", "rfid"); err != nil {
		t.Fatal(err)
	}

	// Tag X is read twice at shelf0, once at shelf1: arbitration should
	// place it on shelf0.
	if _, err := ctl.Publish("reader0", []stream.Tuple{read(0.2, "X", true), read(0.4, "X", true)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Publish("reader1", []stream.Tuple{read(0.3, "X", true), read(0.6, "bad", false)}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Advance(at(1)); err != nil {
		t.Fatal(err)
	}

	d, _, done, err := subc.Next()
	if err != nil || done {
		t.Fatalf("Next: %v (done=%v)", err, done)
	}
	if d.Stream != "rfid" || d.Epoch != at(1).UnixNano() {
		t.Fatalf("data = %+v", d)
	}
	if len(d.Tuples) != 1 || d.Tuples[0].Values[0] != stream.String("shelf0") {
		t.Fatalf("tuples = %v, want X arbitrated to shelf0", d.Tuples)
	}

	st, err := ctl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "acme" || st.TuplesIn != 4 || st.Epochs != 1 || st.Subscribers != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServerRejectsCorruptFrames: a frame that sets the reserved flags
// byte is corrupt like one with bad magic or an oversize length — the
// server drops the connection without a reply and without applying the
// frame, and keeps serving everyone else.
func TestServerRejectsCorruptFrames(t *testing.T) {
	s := startServer(t, false)
	ctl := dial(t, s)
	if err := ctl.Create("c", testSpec("")); err != nil {
		t.Fatal(err)
	}
	pub := wire.Publish{Receptor: "reader0", Seq: 1, Tuples: []stream.Tuple{read(0.2, "X", true)}}.Frame()
	oversize := wire.AppendFrame(nil, pub)
	oversize[4], oversize[5], oversize[6], oversize[7] = 0xff, 0xff, 0xff, 0xff
	withFlags := func(frame []byte, flags uint8) []byte {
		frame[3] = flags // the reserved header byte
		return frame
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"bad magic", append([]byte{0xde, 0xad}, wire.AppendFrame(nil, pub)[2:]...)},
		{"oversize", oversize},
		{"flags 0x01", withFlags(wire.AppendFrame(nil, pub), 0x01)},
		{"flags 0x80", withFlags(wire.AppendFrame(nil, pub), 0x80)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.WriteFrame(conn, wire.Hello{Tenant: "c", Role: "publish"}.Frame()); err != nil {
				t.Fatal(err)
			}
			if f, err := wire.ReadFrame(conn); err != nil || f.Type != wire.TypeAck {
				t.Fatalf("hello reply = %v, %v", f.Type, err)
			}
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if f, err := wire.ReadFrame(conn); err != io.EOF {
				t.Fatalf("after a corrupt frame: read %v, %v; want the server to close the connection", f.Type, err)
			}
		})
	}
	// None of the corrupt publishes reached the channel.
	ack, err := ctl.Publish("reader1", []stream.Tuple{read(0.3, "Y", true)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := ctl.Stats(); err != nil || st.TuplesIn != 1 {
		t.Fatalf("stats = %+v, %v (ack %+v); want only the one valid tuple in", st, err, ack)
	}
}

func TestServerQuotas(t *testing.T) {
	s := startServer(t, false)
	c := dial(t, s)
	spec := testSpec(`, "quota": {"channel_cap": 2, "max_publish_tuples": 4, "max_subscribers": 1}`)
	if err := c.Create("q", spec); err != nil {
		t.Fatal(err)
	}

	// Oversized publish frame: rejected outright.
	big := []stream.Tuple{read(0.1, "a", true), read(0.2, "b", true), read(0.3, "c", true), read(0.4, "d", true), read(0.5, "e", true)}
	if _, err := c.Publish("reader0", big); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("oversized publish: err = %v, want quota error", err)
	}

	// Within the frame quota but over the channel cap: oldest readings
	// evicted, reported in the ack.
	ack, err := c.Publish("reader0", big[:4])
	if err != nil {
		t.Fatal(err)
	}
	if ack.Cap != 2 || ack.Pending != 2 || ack.Dropped != 2 {
		t.Errorf("ack = %+v, want cap=2 pending=2 dropped=2", ack)
	}

	// Subscriber quota.
	s1 := dial(t, s)
	if err := s1.Subscribe("q", "rfid"); err != nil {
		t.Fatal(err)
	}
	s2 := dial(t, s)
	if err := s2.Subscribe("q", "rfid"); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("second subscriber: err = %v, want quota error", err)
	}

	// Unknown receptor and unknown tenant are errors, not disconnects.
	if _, err := c.Publish("nope", big[:1]); err == nil {
		t.Error("publish to unknown receptor: want error")
	}
	if err := dial(t, s).Hello("ghost", "pub"); err == nil {
		t.Error("hello to unknown tenant: want error")
	}
	// The control connection survived all of the above.
	if _, err := c.Stats(); err != nil {
		t.Errorf("stats after errors: %v", err)
	}
}

// TestServerGracefulDrain is the no-lost-epochs check: readings are
// published but NOT advanced past, then the server shuts down. The
// drain must commit the in-flight epochs, deliver them to the live
// subscriber, and only then close the connection with a Drain frame
// carrying the final committed epoch.
func TestServerGracefulDrain(t *testing.T) {
	s := startServer(t, false)
	c := dial(t, s)
	if err := c.Create("drainy", testSpec("")); err != nil {
		t.Fatal(err)
	}
	sub := dial(t, s)
	if err := sub.Subscribe("drainy", "rfid"); err != nil {
		t.Fatal(err)
	}

	// Epoch 1 committed normally; epochs 2 and 3 left in flight.
	if _, err := c.Publish("reader0", []stream.Tuple{read(0.2, "X", true)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(at(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("reader0", []stream.Tuple{read(1.2, "X", true), read(2.4, "Y", true)}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	var epochs []int64
	var final int64
	for {
		d, f, done, err := sub.Next()
		if err != nil {
			t.Fatalf("Next: %v (epochs so far %v)", err, epochs)
		}
		if done {
			final = f
			break
		}
		epochs = append(epochs, d.Epoch)
	}
	want := []int64{at(1).UnixNano(), at(2).UnixNano(), at(3).UnixNano()}
	if len(epochs) != len(want) {
		t.Fatalf("epochs = %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("epochs = %v, want %v", epochs, want)
		}
	}
	if final != at(3).UnixNano() {
		t.Errorf("final epoch = %d, want %d", final, at(3).UnixNano())
	}
}

// TestServerOracleDifferential drives the identical spec and workload
// through an in-process Engine and through the TCP server, and demands
// byte-identical output — the serving layer must add framing, not
// semantics.
func TestServerOracleDifferential(t *testing.T) {
	type pub struct {
		rec string
		ts  []stream.Tuple
	}
	type step struct {
		pubs []pub
		now  time.Time
	}
	var script []step
	for e := 0; e < 20; e++ {
		base := float64(e)
		script = append(script, step{
			pubs: []pub{
				{"reader0", []stream.Tuple{
					read(base+0.1, fmt.Sprintf("tag%d", e%3), true),
					read(base+0.3, "tag0", true),
					read(base+0.5, "junk", false),
				}},
				{"reader1", []stream.Tuple{
					read(base+0.2, fmt.Sprintf("tag%d", e%3), e%2 == 0),
				}},
			},
			now: at(base + 1),
		})
	}

	// Oracle: in-process Engine, no sockets.
	eng := NewEngine(0)
	ten, err := eng.Create("oracle", testSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	osub, err := ten.Subscribe("rfid")
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range script {
		for _, p := range st.pubs {
			if _, err := ten.Publish(p.rec, p.ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := ten.Advance(st.now); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.DrainAll(); err != nil {
		t.Fatal(err)
	}
	want := NewFingerprint()
	for d := range osub.C() {
		want.Add(d)
	}

	// Candidate: the same workload through TCP.
	s := startServer(t, false)
	c := dial(t, s)
	if err := c.Create("served", testSpec("")); err != nil {
		t.Fatal(err)
	}
	sub := dial(t, s)
	if err := sub.Subscribe("served", "rfid"); err != nil {
		t.Fatal(err)
	}
	for _, st := range script {
		for _, p := range st.pubs {
			if _, err := c.Publish(p.rec, p.ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Advance(st.now); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got := NewFingerprint()
	for {
		d, _, done, err := sub.Next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		got.Add(d)
	}

	if want.Frames() == 0 || want.Tuples() == 0 {
		t.Fatalf("oracle produced no output: %v", want)
	}
	if got.Sum() != want.Sum() || got.Frames() != want.Frames() || got.Tuples() != want.Tuples() {
		t.Errorf("served output %v != in-process oracle %v", got, want)
	}
}

func TestServerAlterReplacesPipeline(t *testing.T) {
	eng := NewEngine(0)
	if _, err := eng.Create("t", testSpec("")); err != nil {
		t.Fatal(err)
	}
	t1, _ := eng.Tenant("t")
	// Resubmitting the spec drains the old pipeline and swaps in a new one.
	if _, err := eng.Create("t", testSpec("")); err != nil {
		t.Fatal(err)
	}
	t2, _ := eng.Tenant("t")
	if t1 == t2 {
		t.Fatal("alter did not replace the tenant")
	}
	if _, err := t1.Publish("reader0", []stream.Tuple{read(0.1, "X", true)}); err != nil {
		t.Error("old tenant's channels should still accept (frozen) publishes after drain")
	}
	if err := t1.Advance(at(1)); err == nil {
		t.Error("old tenant should refuse Advance after drain")
	}
	if _, err := t2.Publish("reader0", []stream.Tuple{read(0.1, "X", true)}); err != nil {
		t.Errorf("new tenant publish: %v", err)
	}
}

func TestServerTenantLimit(t *testing.T) {
	eng := NewEngine(1)
	if _, err := eng.Create("a", testSpec("")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Create("b", testSpec("")); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("err = %v, want tenant limit", err)
	}
	// Alter of an existing tenant is allowed at the limit.
	if _, err := eng.Create("a", testSpec("")); err != nil {
		t.Fatal(err)
	}
}

func TestServerMetricsExposeTenants(t *testing.T) {
	s := startServer(t, true)
	c := dial(t, s)
	if err := c.Create("metered", testSpec("")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("reader0", []stream.Tuple{read(0.2, "X", true)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(at(1)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(s.MetricsURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"esp_server_conns_total",
		"esp_server_tenants 1",
		"esp_tenant_metered_serve_tuples_in_total 1",
		"esp_tenant_metered_serve_epochs_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"bad json", `{`},
		{"no deployment", `{"receptors": [{"id": "r", "type": "rfid", "schema": "a:int"}]}`},
		{"no receptors", `{"deployment": {"epoch": "1s", "groups": {"g": {"type": "rfid", "members": ["r"]}}}}`},
		{"receptor missing schema", `{"deployment": {"epoch": "1s", "groups": {"g": {"type": "rfid", "members": ["r"]}}},
			"receptors": [{"id": "r", "type": "rfid"}]}`},
		{"duplicate receptor", `{"deployment": {"epoch": "1s", "groups": {"g": {"type": "rfid", "members": ["r"]}}},
			"receptors": [{"id": "r", "type": "rfid", "schema": "a:int"}, {"id": "r", "type": "rfid", "schema": "a:int"}]}`},
		{"bad schema kind", `{"deployment": {"epoch": "1s", "groups": {"g": {"type": "rfid", "members": ["r"]}}},
			"receptors": [{"id": "r", "type": "rfid", "schema": "a:blob"}]}`},
		{"bad start", `{"deployment": {"epoch": "1s", "groups": {"g": {"type": "rfid", "members": ["r"]}}},
			"receptors": [{"id": "r", "type": "rfid", "schema": "a:int"}], "start": "yesterday"}`},
	}
	for _, tc := range cases {
		if _, err := parseSpec([]byte(tc.spec)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	eng := NewEngine(0)
	if _, err := eng.Create("", testSpec("")); err == nil {
		t.Error("empty tenant name: want error")
	}
}
