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
// PublishAll + Poll cycle allocates nothing.
func TestChannelCycleAllocs(t *testing.T) {
	c := NewChannel("ch", TypeMote, chanSchema)
	batch := make([]stream.Tuple, 64)
	for i := range batch {
		batch[i] = chanTuple(i)
	}
	now := time.Unix(1<<20, 0).UTC()
	cycle := func() {
		c.PublishAll(batch)
		if n := len(c.Poll(now)); n != len(batch) {
			t.Fatalf("polled %d of %d", n, len(batch))
		}
	}
	cycle() // warm: size the backlog and the result slice
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("PublishAll + Poll: %v allocs, want 0", n)
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
