package wire

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"esp/internal/stream"
)

// TestDecoderMatchesDecodeTuples: a reused Decoder decodes what the
// allocating decoder does, frame after frame, and each result's Values
// are capacity-bounded so an append cannot reach the next tuple.
func TestDecoderMatchesDecodeTuples(t *testing.T) {
	var dec Decoder
	for i := 0; i < 50; i++ {
		var in []stream.Tuple
		for k := 0; k <= i%7; k++ {
			vals := make([]stream.Value, k%3)
			for j := range vals {
				vals[j] = stream.String(fmt.Sprintf("v%d", (i+j)%5))
			}
			if k%2 == 1 {
				vals = append(vals, stream.Float(float64(i)), stream.Bool(k%4 == 1))
			}
			in = append(in, stream.Tuple{Ts: time.Unix(int64(i), int64(k)).UTC(), Values: vals})
		}
		enc := AppendTuples(nil, in)
		want, n, err := DecodeTuples(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, dn, err := dec.Tuples(enc)
		if err != nil || dn != n {
			t.Fatalf("frame %d: consumed %d of %d, %v", i, dn, n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: decoder %v, want %v", i, got, want)
		}
		for _, tu := range got {
			if cap(tu.Values) != len(tu.Values) {
				t.Fatalf("frame %d: Values len %d cap %d", i, len(tu.Values), cap(tu.Values))
			}
		}
	}
}

// TestDecoderInternBound: the intern table never exceeds its bound, a
// string seen again comes back from the table, and a long string is
// never kept.
func TestDecoderInternBound(t *testing.T) {
	var dec Decoder
	for i := 0; i < 3*maxInterned; i++ {
		dec.intern([]byte(fmt.Sprintf("tag-%d", i)))
		if len(dec.names) > maxInterned {
			t.Fatalf("after %d strings the table holds %d, bound %d", i+1, len(dec.names), maxInterned)
		}
	}
	long := make([]byte, maxInternLen+1)
	dec.intern(long)
	if _, ok := dec.names[string(long)]; ok {
		t.Fatal("string longer than maxInternLen interned")
	}
	a := dec.intern([]byte("reader0"))
	if n := testing.AllocsPerRun(100, func() { _ = dec.intern([]byte("reader0")) }); n != 0 {
		t.Errorf("interned lookup: %v allocs, want 0", n)
	}
	if b := dec.intern([]byte("reader0")); b != a {
		t.Fatalf("intern returned %q, want %q", b, a)
	}
}

// TestDecoderPublishAllocs is the decoder's allocation gate: a warm
// Decoder decodes publish frames — floats, and strings it has seen —
// without allocating.
func TestDecoderPublishAllocs(t *testing.T) {
	frames := []Frame{
		Publish{Receptor: "m0", Seq: 1, Tuples: []stream.Tuple{
			{Ts: time.Unix(1, 0).UTC(), Values: []stream.Value{stream.Float(20.5)}},
			{Ts: time.Unix(2, 0).UTC(), Values: []stream.Value{stream.Float(21)}},
		}}.Frame(),
		Publish{Receptor: "reader0", Seq: 2, TraceID: 9, Tuples: []stream.Tuple{
			{Ts: time.Unix(1, 0).UTC(), Values: []stream.Value{stream.String("tag-1"), stream.Bool(true)}},
			{Ts: time.Unix(1, 5).UTC(), Values: []stream.Value{stream.String("tag-2"), stream.Bool(false)}},
			{Ts: time.Unix(1, 9).UTC(), Values: []stream.Value{stream.Null(), stream.Time(time.Unix(7, 0))}},
		}}.Frame(),
	}
	var dec Decoder
	decode := func() {
		for _, f := range frames {
			if _, err := dec.Publish(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode() // warm: size the scratch, intern the strings
	if n := testing.AllocsPerRun(200, decode); n != 0 {
		t.Errorf("Decoder.Publish: %v allocs, want 0", n)
	}
	for _, f := range frames {
		want, _ := DecodePublish(f)
		got, err := dec.Publish(f)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Decoder.Publish = %+v, %v; want %+v", got, err, want)
		}
	}
}

// TestDecodeTuplesExactValues pins the allocating decoder's shape: one
// exact-size Values array per tuple, so a kept tuple pins only its own
// values (a shared growing slice would keep every tuple's alive).
func TestDecodeTuplesExactValues(t *testing.T) {
	enc := AppendTuples(nil, sampleTuples())
	ts, _, err := DecodeTuples(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, tu := range ts {
		if cap(tu.Values) != len(tu.Values) {
			t.Errorf("tuple %d: Values len %d cap %d", i, len(tu.Values), cap(tu.Values))
		}
	}
	if n := testing.AllocsPerRun(50, func() { _, _, _ = DecodeTuples(enc) }); n != 5 {
		// The slice, two non-empty Values arrays, two non-empty strings.
		t.Errorf("DecodeTuples of sampleTuples: %v allocs, want 5", n)
	}
}
