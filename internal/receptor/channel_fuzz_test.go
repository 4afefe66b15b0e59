package receptor

import (
	"reflect"
	"testing"
	"time"

	"esp/internal/stream"
)

// refChannel is FuzzChannel's reference: a channel that deep-copies
// everything it is given and everything it returns, with the same
// bound and eviction order as Channel.
type refChannel struct {
	buf     []stream.Tuple
	cap     int
	dropped int64
}

func (r *refChannel) publish(ts []stream.Tuple) {
	for _, t := range ts {
		r.buf = append(r.buf, t.Clone())
	}
	r.evict()
}

func (r *refChannel) setCap(n int) {
	if n <= 0 {
		n = DefaultChannelCap
	}
	r.cap = n
	r.evict()
}

func (r *refChannel) evict() {
	if over := len(r.buf) - r.cap; over > 0 {
		r.dropped += int64(over)
		r.buf = append([]stream.Tuple(nil), r.buf[over:]...)
	}
}

func (r *refChannel) poll(now time.Time) []stream.Tuple {
	var out, keep []stream.Tuple
	for _, t := range r.buf {
		if t.Ts.After(now) {
			keep = append(keep, t)
		} else {
			out = append(out, t.Clone())
		}
	}
	r.buf = keep
	return out
}

// FuzzChannel drives a Channel and the deep-copying reference with the
// same random sequence of PublishAll, Publish, caller mutation of the
// last published batch, Poll at increasing times and SetCap, and
// requires identical Poll results, Pending and Dropped throughout. After
// every step the last Poll result must still read as it did when it was
// returned: it is borrowed until the next Poll, and nothing else may
// write it.
func FuzzChannel(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 3, 1})
	f.Add([]byte{4, 2, 0, 3, 7, 7, 7, 7, 3, 0, 1, 2, 6, 0, 3, 2, 3, 2})
	f.Add([]byte{0, 3, 9, 9, 9, 9, 2, 3, 1, 1, 7, 3, 0, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewChannel("ch", TypeMote, chanSchema)
		ref := &refChannel{cap: DefaultChannelCap}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		now := time.Unix(100, 0).UTC()
		var last []stream.Tuple // the caller's last batch
		var result, snapshot []stream.Tuple
		seq := int64(0)
		for len(ops) > 0 {
			switch next() % 5 {
			case 0, 1:
				n := next()%4 + 1
				batch := make([]stream.Tuple, n)
				for i := range batch {
					x := next()
					vals := make([]stream.Value, x%3)
					for j := range vals {
						seq++
						if j == 0 {
							vals[j] = stream.Int(seq)
						} else {
							vals[j] = stream.String(string(rune('a' + seq%26)))
						}
					}
					batch[i] = stream.Tuple{Ts: now.Add(time.Duration(x%8-2) * time.Second), Values: vals}
				}
				ref.publish(batch)
				if len(ops)%2 == 0 {
					c.PublishAll(batch)
				} else {
					for _, tu := range batch {
						c.Publish(tu)
					}
				}
				last = batch
			case 2:
				for _, tu := range last {
					for j := range tu.Values {
						tu.Values[j] = stream.Int(-1)
					}
				}
			case 3:
				now = now.Add(time.Duration(next()%3+1) * time.Second)
				want := ref.poll(now)
				result = c.Poll(now)
				if !sameTuples(result, want) {
					t.Fatalf("Poll(%v) = %v, want %v", now, result, want)
				}
				snapshot = snapshot[:0]
				for _, tu := range result {
					snapshot = append(snapshot, tu.Clone())
				}
			case 4:
				n := next() % 6
				ref.setCap(n)
				c.SetCap(n)
			}
			if !sameTuples(result, snapshot) {
				t.Fatalf("last Poll result changed before the next Poll: %v, was %v", result, snapshot)
			}
			if c.Pending() != len(ref.buf) || c.Dropped() != ref.dropped {
				t.Fatalf("pending %d dropped %d, reference %d / %d", c.Pending(), c.Dropped(), len(ref.buf), ref.dropped)
			}
		}
	})
}

// sameTuples compares tuple lists, an empty list equal to a nil one and
// empty Values equal to nil ones.
func sameTuples(a, b []stream.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Ts.Equal(b[i].Ts) || len(a[i].Values) != len(b[i].Values) {
			return false
		}
		if len(a[i].Values) > 0 && !reflect.DeepEqual(a[i].Values, b[i].Values) {
			return false
		}
	}
	return true
}
