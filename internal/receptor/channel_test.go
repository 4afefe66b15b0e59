package receptor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"esp/internal/stream"
)

var chanSchema = stream.MustSchema(stream.Field{Name: "v", Kind: stream.KindInt})

func chanTuple(sec int) stream.Tuple {
	return stream.NewTuple(time.Unix(int64(sec), 0).UTC(), stream.Int(int64(sec)))
}

// TestChannelShrinkWhileBacklogged pins the SetCap shrink accounting:
// every evicted tuple counts in Dropped exactly once, the survivors are
// the newest, and a shrink that evicts nothing counts nothing.
func TestChannelShrinkWhileBacklogged(t *testing.T) {
	cases := []struct {
		name        string
		publish     int // tuples published before the shrink
		shrinkTo    int // SetCap argument
		wantDropped int64
		wantPending int
		wantOldest  int // value of the first surviving tuple (publish second)
	}{
		{name: "shrink-below-backlog", publish: 10, shrinkTo: 3, wantDropped: 7, wantPending: 3, wantOldest: 8},
		{name: "shrink-to-one", publish: 5, shrinkTo: 1, wantDropped: 4, wantPending: 1, wantOldest: 5},
		{name: "shrink-to-backlog", publish: 4, shrinkTo: 4, wantDropped: 0, wantPending: 4, wantOldest: 1},
		{name: "shrink-above-backlog", publish: 3, shrinkTo: 8, wantDropped: 0, wantPending: 3, wantOldest: 1},
		{name: "restore-default", publish: 6, shrinkTo: 0, wantDropped: 0, wantPending: 6, wantOldest: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChannel("ch", TypeMote, chanSchema)
			for i := 1; i <= tc.publish; i++ {
				c.Publish(chanTuple(i))
			}
			c.SetCap(tc.shrinkTo)
			if got := c.Dropped(); got != tc.wantDropped {
				t.Errorf("Dropped = %d, want %d", got, tc.wantDropped)
			}
			if got := c.Pending(); got != tc.wantPending {
				t.Errorf("Pending = %d, want %d", got, tc.wantPending)
			}
			// A second identical shrink must not re-count the same
			// evictions, and draining must return only survivors.
			c.SetCap(tc.shrinkTo)
			if got := c.Dropped(); got != tc.wantDropped {
				t.Errorf("Dropped after repeated shrink = %d, want %d", got, tc.wantDropped)
			}
			out := c.Poll(time.Unix(1<<20, 0).UTC())
			if len(out) != tc.wantPending {
				t.Fatalf("Poll returned %d tuples, want %d", len(out), tc.wantPending)
			}
			if tc.wantPending > 0 && out[0].Values[0].AsInt() != int64(tc.wantOldest) {
				t.Errorf("oldest survivor = %d, want %d", out[0].Values[0].AsInt(), tc.wantOldest)
			}
			// Published = dropped + delivered: nothing lost, nothing
			// counted twice.
			if int64(tc.publish) != tc.wantDropped+int64(len(out)) {
				t.Errorf("accounting leak: published %d, dropped %d, delivered %d", tc.publish, tc.wantDropped, len(out))
			}
		})
	}
}

// TestChannelSaturatedAccounting drives a channel far past its bound and
// checks the global invariant published == dropped + delivered, which
// catches both under- and double-counting across the eviction and
// compaction paths.
func TestChannelSaturatedAccounting(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	c.SetCap(7)
	const total = 1000
	delivered := 0
	for i := 1; i <= total; i++ {
		c.Publish(chanTuple(i))
		if i%97 == 0 {
			delivered += len(c.Poll(time.Unix(int64(i), 0).UTC()))
		}
	}
	delivered += len(c.Poll(time.Unix(total, 0).UTC()))
	if got := c.Dropped() + int64(delivered); got != total {
		t.Fatalf("published %d, dropped %d + delivered %d = %d", total, c.Dropped(), delivered, got)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending %d after full drain", c.Pending())
	}
}

// TestChannelPublishAll covers the batched ingest path used by the
// serving layer, including a batch larger than the bound.
func TestChannelPublishAll(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	c.SetCap(3)
	batch := make([]stream.Tuple, 8)
	for i := range batch {
		batch[i] = chanTuple(i + 1)
	}
	c.PublishAll(batch)
	if c.Dropped() != 5 || c.Pending() != 3 {
		t.Fatalf("Dropped = %d, Pending = %d", c.Dropped(), c.Pending())
	}
	out := c.Poll(time.Unix(100, 0).UTC())
	if len(out) != 3 || out[0].Values[0].AsInt() != 6 {
		t.Fatalf("survivors = %v", out)
	}
}

// TestChannelConcurrentPublishSetCap exercises Publish, PublishAll,
// SetCap shrink/grow, Poll, and the stat accessors concurrently; run
// under -race this pins the lock discipline, and the final accounting
// invariant holds regardless of interleaving.
func TestChannelConcurrentPublishSetCap(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	const (
		publishers  = 4
		perPub      = 500
		capFlippers = 2
	)
	var pubs, churn sync.WaitGroup
	var delivered int64
	var deliveredMu sync.Mutex
	stop := make(chan struct{})

	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := 0; i < perPub; i++ {
				if i%10 == 0 {
					c.PublishAll([]stream.Tuple{chanTuple(i), chanTuple(i)})
				} else {
					c.Publish(chanTuple(i))
				}
			}
		}()
	}
	for f := 0; f < capFlippers; f++ {
		churn.Add(1)
		go func(f int) {
			defer churn.Done()
			caps := []int{5, 64, 1, 1024, 16}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.SetCap(caps[(i+f)%len(caps)])
				_ = c.Pending()
				_ = c.Cap()
			}
		}(f)
	}
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := len(c.Poll(time.Unix(1<<30, 0).UTC()))
			deliveredMu.Lock()
			delivered += int64(n)
			deliveredMu.Unlock()
		}
	}()

	pubs.Wait()
	close(stop)
	churn.Wait()
	final := delivered + int64(len(c.Poll(time.Unix(1<<30, 0).UTC())))

	// Each publisher enqueues perPub + perPub/10 extra tuples (the
	// PublishAll pairs add one extra each).
	total := int64(publishers * (perPub + perPub/10))
	if got := c.Dropped() + final; got != total {
		t.Fatalf("published %d, dropped %d + delivered %d = %d", total, c.Dropped(), final, got)
	}
}

// TestChannelPollReuse pins the in-place Poll: not-yet-due tuples stay
// queued in publish order, and a poll's result is the previous result's
// memory — the channel's ownership rule, stated on Receptor.Poll.
func TestChannelPollReuse(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	c.PublishAll([]stream.Tuple{chanTuple(1), chanTuple(5), chanTuple(2), chanTuple(6), chanTuple(0)})
	first := c.Poll(time.Unix(2, 0).UTC())
	if len(first) != 3 || first[0].Values[0].AsInt() != 1 || first[2].Values[0].AsInt() != 0 {
		t.Fatalf("first poll = %v", first)
	}
	c.PublishAll([]stream.Tuple{chanTuple(3)})
	second := c.Poll(time.Unix(6, 0).UTC())
	var got []int64
	for _, tu := range second {
		got = append(got, tu.Values[0].AsInt())
	}
	if want := []int64{5, 6, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second poll = %v, want %v (publish order of the held and new tuples)", got, want)
	}
	if &first[0] != &second[0] {
		t.Error("Poll did not reuse its result slice")
	}
	if c.Poll(time.Unix(100, 0).UTC()) != nil || c.Pending() != 0 {
		t.Errorf("drained channel: pending %d", c.Pending())
	}
}

// TestChannelCycleAllocs is the channel's allocation gate: a warm
// PublishAll + Poll cycle allocates nothing, copying the values in
// included — the caller overwrites its batch every cycle, as a
// connection's decoder overwrites its scratch, and every Poll still
// returns what was published.
func TestChannelCycleAllocs(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	batch := make([]stream.Tuple, 64)
	for i := range batch {
		batch[i] = chanTuple(i)
	}
	now := time.Unix(1<<20, 0).UTC()
	round := int64(0)
	cycle := func() {
		round++
		for i := range batch {
			batch[i].Values[0] = stream.Int(round)
		}
		c.PublishAll(batch)
		for i := range batch {
			batch[i].Values[0] = stream.Int(-1) // reuse after the call returns
		}
		out := c.Poll(now)
		if len(out) != len(batch) {
			t.Fatalf("polled %d of %d", len(out), len(batch))
		}
		if got := out[len(out)-1].Values[0].AsInt(); got != round {
			t.Fatalf("round %d polled value %d", round, got)
		}
	}
	cycle() // warm: size the backlog, the slabs and the result slice
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("PublishAll + Poll: %v allocs, want 0", n)
	}
}

// TestChannelPublishCopies: the channel owns what it buffers — a caller
// that reuses its tuples' Values after PublishAll (or Publish) does not
// change what Poll returns.
func TestChannelPublishCopies(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	vals := []stream.Value{stream.Int(1), stream.Int(2), stream.Int(3)}
	batch := []stream.Tuple{
		{Ts: time.Unix(1, 0).UTC(), Values: vals[0:1]},
		{Ts: time.Unix(2, 0).UTC(), Values: vals[1:2]},
	}
	c.PublishAll(batch)
	one := stream.Tuple{Ts: time.Unix(3, 0).UTC(), Values: vals[2:3]}
	c.Publish(one)
	for i := range vals {
		vals[i] = stream.Int(-1)
	}
	batch[0].Ts = time.Unix(9, 0).UTC()
	out := c.Poll(time.Unix(5, 0).UTC())
	var got []int64
	for _, tu := range out {
		got = append(got, tu.Values[0].AsInt())
		if cap(tu.Values) != len(tu.Values) {
			t.Errorf("polled Values len %d cap %d: an append would reach the next tuple", len(tu.Values), cap(tu.Values))
		}
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("polled %v after the caller reused its values, want [1 2 3]", got)
	}
}

// TestChannelHeldValuesSurvivePolls: a reading dated past several polls
// keeps its values while it waits — it is moved between the channel's
// two slabs at each Poll, and the publishes and results around it reuse
// the slab it left.
func TestChannelHeldValuesSurvivePolls(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	c.PublishAll([]stream.Tuple{chanTuple(1), chanTuple(10), chanTuple(2)})
	for sec := 2; sec < 10; sec++ {
		out := c.Poll(time.Unix(int64(sec), 0).UTC())
		for _, tu := range out {
			if v := tu.Values[0].AsInt(); v > int64(sec) {
				t.Fatalf("poll at %d returned the reading dated %d", sec, v)
			}
		}
		// Fresh readings fill the slab the previous result used.
		c.PublishAll([]stream.Tuple{chanTuple(sec + 1), chanTuple(sec + 1)})
		if c.Pending() < 1 {
			t.Fatalf("poll at %d: held reading gone", sec)
		}
	}
	out := c.Poll(time.Unix(10, 0).UTC())
	if len(out) != 3 || out[0].Values[0].AsInt() != 10 || out[1].Values[0].AsInt() != 10 || out[2].Values[0].AsInt() != 10 {
		t.Fatalf("final poll = %v, want the held reading 10 then the two published at 10", out)
	}
}

// TestChannelPublishDuringRead: publishing while another goroutine
// still reads the previous Poll result is race-free — publishes write
// only the publish slab, never the result's. Run under -race.
func TestChannelPublishDuringRead(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	var sum int64
	for round := 1; round <= 50; round++ {
		batch := make([]stream.Tuple, 32)
		for i := range batch {
			batch[i] = chanTuple(round)
		}
		c.PublishAll(batch)
		out := c.Poll(time.Unix(int64(round), 0).UTC())
		done := make(chan int64)
		go func() {
			var s int64
			for _, tu := range out {
				s += tu.Values[0].AsInt()
			}
			done <- s
		}()
		// Next epoch's readings, including held-back ones, arrive while
		// the reader is still on the result.
		c.PublishAll([]stream.Tuple{chanTuple(round + 1), chanTuple(round + 5)})
		c.Publish(chanTuple(round + 1))
		got := <-done
		if got != int64(len(out))*int64(round) && round > 5 {
			t.Fatalf("round %d: reader summed %d over %d tuples", round, got, len(out))
		}
		sum += got
	}
	if sum == 0 {
		t.Fatal("reader saw nothing")
	}
}

// TestChannelNeverPolledBounded: a channel at its cap that is never
// polled holds tuple and value storage proportional to its backlog,
// not to its traffic, and reclaims what eviction frees in place — a
// saturated publish allocates nothing.
func TestChannelNeverPolledBounded(t *testing.T) {
	const limit, total = 1000, 100_000
	c := NewChannel("ch", TypeMote, chanSchema)
	c.SetCap(limit)
	vals := []stream.Value{stream.Int(0), stream.String("x")}
	for i := 1; i <= total; i++ {
		vals[0] = stream.Int(int64(i))
		if i%2 == 0 {
			c.PublishAll([]stream.Tuple{{Ts: time.Unix(1, 0).UTC(), Values: vals}})
			continue
		}
		c.Publish(stream.Tuple{Ts: time.Unix(1, 0).UTC(), Values: vals[:1]})
	}
	c.mu.Lock()
	tupleCap, valCap := cap(c.buf), cap(c.vals)
	c.mu.Unlock()
	if tupleCap > 4*limit || valCap > 8*limit {
		t.Fatalf("after %d publishes at cap %d: %d tuple slots, %d value slots", total, limit, tupleCap, valCap)
	}
	if c.Pending() != limit || c.Dropped() != total-limit {
		t.Fatalf("pending %d, dropped %d", c.Pending(), c.Dropped())
	}
	saturated := func() {
		for i := 0; i < 10*limit; i++ {
			c.Publish(stream.Tuple{Ts: time.Unix(1, 0).UTC(), Values: vals})
		}
	}
	if n := testing.AllocsPerRun(5, saturated); n != 0 {
		t.Errorf("%d publishes to a saturated channel: %v allocs, want 0", 10*limit, n)
	}
	out := c.Poll(time.Unix(2, 0).UTC())
	if len(out) != limit || out[limit-1].Values[0].AsInt() != total || out[limit-1].Values[1].AsString() != "x" {
		t.Fatalf("polled %d, newest %v", len(out), out[len(out)-1])
	}
}

func BenchmarkChannelSaturatedPublish(b *testing.B) {
	c := NewChannel("ch", TypeMote, chanSchema)
	c.SetCap(1024)
	t0 := chanTuple(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Publish(t0)
	}
	_ = fmt.Sprintf("%d", c.Dropped())
}
