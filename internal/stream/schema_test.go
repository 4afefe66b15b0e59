package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestSchemaBasics(t *testing.T) {
	s := MustSchema(
		Field{Name: "tag_id", Kind: KindString},
		Field{Name: "shelf", Kind: KindInt},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Index("TAG_ID"); !ok || i != 0 {
		t.Errorf("Index(TAG_ID) = %d, %v; want case-insensitive hit at 0", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index(missing) should miss")
	}
	if got := s.MustIndex("shelf"); got != 1 {
		t.Errorf("MustIndex(shelf) = %d", got)
	}
	if s.String() != "(tag_id string, shelf int)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Field{Name: "a", Kind: KindInt}, Field{Name: "A", Kind: KindInt}); err == nil {
		t.Error("duplicate name (case-insensitive): want error")
	}
	if _, err := NewSchema(Field{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty name: want error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustIndex on missing field: want panic")
			}
		}()
		MustSchema(Field{Name: "a", Kind: KindInt}).MustIndex("b")
	}()
}

func TestSchemaEqualAndConcat(t *testing.T) {
	a := MustSchema(Field{Name: "x", Kind: KindInt})
	b := MustSchema(Field{Name: "X", Kind: KindInt})
	c := MustSchema(Field{Name: "x", Kind: KindFloat})
	if !a.Equal(b) {
		t.Error("schemas differing only in case should be Equal")
	}
	if a.Equal(c) {
		t.Error("schemas with different kinds should not be Equal")
	}
	d := MustSchema(Field{Name: "y", Kind: KindString})
	cat, err := a.Concat(d)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 || cat.MustIndex("y") != 1 {
		t.Errorf("Concat = %s", cat)
	}
	if _, err := a.Concat(b); err == nil {
		t.Error("Concat with duplicate name: want error")
	}
}

func TestCheckTuple(t *testing.T) {
	s := MustSchema(
		Field{Name: "temp", Kind: KindFloat},
		Field{Name: "mote", Kind: KindInt},
	)
	ok := NewTuple(time.Unix(0, 0), Float(21.5), Int(3))
	if err := CheckTuple(s, ok); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	// Int accepted where float declared.
	if err := CheckTuple(s, NewTuple(time.Unix(0, 0), Int(21), Int(3))); err != nil {
		t.Errorf("int-for-float rejected: %v", err)
	}
	// NULL accepted anywhere.
	if err := CheckTuple(s, NewTuple(time.Unix(0, 0), Null(), Null())); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
	if err := CheckTuple(s, NewTuple(time.Unix(0, 0), Float(1))); err == nil {
		t.Error("arity mismatch: want error")
	}
	if err := CheckTuple(s, NewTuple(time.Unix(0, 0), String("hot"), Int(3))); err == nil {
		t.Error("kind mismatch: want error")
	}
	// CheckTuples reports the first tuple CheckTuple refuses, with its
	// error.
	batch := []Tuple{ok, NewTuple(time.Unix(0, 0), Int(21), Null()), NewTuple(time.Unix(0, 0), String("hot"), Int(3)), NewTuple(time.Unix(0, 0))}
	if i, err := CheckTuples(s, batch[:2]); i != -1 || err != nil {
		t.Errorf("CheckTuples of valid tuples = %d, %v", i, err)
	}
	for _, bad := range []int{2, 3} {
		want := CheckTuple(s, batch[bad])
		if i, err := CheckTuples(s, append(batch[:2:2], batch[bad])); i != 2 || err == nil || err.Error() != want.Error() {
			t.Errorf("CheckTuples with tuple %d bad = %d, %v; want 2, %v", bad, i, err, want)
		}
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := NewTuple(time.Unix(5, 0), Int(1), Int(2))
	cp := orig.Clone()
	cp.Values[0] = Int(99)
	if orig.Values[0] != Int(1) {
		t.Error("Clone shares value storage")
	}
}

func TestGroupKeyEquality(t *testing.T) {
	a := MakeGroupKey(Int(1), String("x"))
	b := MakeGroupKey(Int(1), String("x"))
	c := MakeGroupKey(Int(1), String("y"))
	if a != b {
		t.Error("identical values must give identical keys")
	}
	if a == c {
		t.Error("different values must give different keys")
	}
	// Arity participates in the key.
	if MakeGroupKey(Int(1)) == MakeGroupKey(Int(1), Null()) {
		t.Error("keys of different arity must differ")
	}
}

func TestQuickGroupKeyInjective(t *testing.T) {
	// For random value slices, key equality must coincide with structural
	// (Go ==) equality of the slices, across arities 0..6 (exercising the
	// >4-field string fallback).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(7)
		a := make([]Value, n)
		b := make([]Value, n)
		for i := range a {
			a[i] = randomValue(r)
			if r.Intn(2) == 0 {
				b[i] = a[i]
			} else {
				b[i] = randomValue(r)
			}
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		return (MakeGroupKey(a...) == MakeGroupKey(b...)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
