package stream

import (
	"fmt"
	"strings"
	"time"
)

// Field is one named, typed column of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema describes the columns of a stream. Schemas are immutable after
// construction; operators share pointers to them freely.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from the given fields. Field names are
// case-insensitive and must be unique.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{
		fields: append([]Field(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		key := strings.ToLower(f.Name)
		if key == "" {
			return nil, fmt.Errorf("stream: schema field %d has empty name", i)
		}
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("stream: duplicate schema field %q", f.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the position of the named field (case-insensitive) and
// whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[strings.ToLower(name)]
	return i, ok
}

// MustIndex is Index that panics when the field is missing.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.Index(name)
	if !ok {
		panic(fmt.Sprintf("stream: schema has no field %q (have %s)", name, s))
	}
	return i
}

// Equal reports whether two schemas have identical field names (modulo
// case) and kinds in the same order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.fields) != len(o.fields) {
		return false
	}
	for i, f := range s.fields {
		g := o.fields[i]
		if !strings.EqualFold(f.Name, g.Name) || f.Kind != g.Kind {
			return false
		}
	}
	return true
}

// Concat returns a new schema with o's fields appended to s's. Duplicate
// names are an error.
func (s *Schema) Concat(o *Schema) (*Schema, error) {
	return NewSchema(append(s.Fields(), o.Fields()...)...)
}

// String renders the schema as "(name kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one timestamped element of a stream. Ts is the tuple's logical
// time (the epoch at which the receptor produced it); Values are positional
// per the owning stream's schema.
type Tuple struct {
	Ts     time.Time
	Values []Value
}

// NewTuple constructs a tuple.
func NewTuple(ts time.Time, values ...Value) Tuple {
	return Tuple{Ts: ts, Values: values}
}

// Clone returns a deep copy of the tuple (values are immutable; only the
// slice header needs copying).
func (t Tuple) Clone() Tuple {
	return Tuple{Ts: t.Ts, Values: append([]Value(nil), t.Values...)}
}

// String renders the tuple for debugging: "ts|v1,v2,...".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Ts.Format("15:04:05.000"))
	b.WriteByte('|')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// CheckTuple validates that a tuple matches a schema: same arity and each
// value NULL or of the field's kind (ints are accepted where floats are
// declared).
func CheckTuple(s *Schema, t Tuple) error {
	if len(t.Values) != s.Len() {
		return fmt.Errorf("stream: tuple arity %d != schema arity %d %s", len(t.Values), s.Len(), s)
	}
	for i := range t.Values {
		if k, want := t.Values[i].kind, s.fields[i].Kind; !fits(k, want) {
			return fmt.Errorf("stream: field %q: value kind %s != schema kind %s", s.fields[i].Name, k, want)
		}
	}
	return nil
}

// CheckTuples validates each of ts as CheckTuple does and returns the
// index of the first tuple that does not match with CheckTuple's error,
// or -1 and nil. It checks a whole batch in one loop, with no call or
// copy per tuple: the serving layer runs it on every published frame.
func CheckTuples(s *Schema, ts []Tuple) (int, error) {
	for i := range ts {
		vals := ts[i].Values
		ok := len(vals) == len(s.fields)
		for j := 0; ok && j < len(vals); j++ {
			ok = fits(vals[j].kind, s.fields[j].Kind)
		}
		if !ok {
			return i, CheckTuple(s, ts[i])
		}
	}
	return -1, nil
}

// fits reports whether a value of kind k may fill a field of kind want.
func fits(k, want Kind) bool {
	return k == KindNull || k == want || (want == KindFloat && k == KindInt)
}

// GroupKey is a comparable composite key built from up to four values,
// used for GROUP BY and DISTINCT. Grouping on more than four expressions
// falls back to a string encoding.
type GroupKey struct {
	n          int
	a, b, c, d Value
	rest       string
}

// MakeGroupKey builds a comparable key from the given values.
func MakeGroupKey(vals ...Value) GroupKey {
	k := GroupKey{n: len(vals)}
	switch {
	case len(vals) > 3:
		k.a, k.b, k.c = vals[0], vals[1], vals[2]
		if len(vals) == 4 {
			k.d = vals[3]
			return k
		}
		var sb strings.Builder
		for _, v := range vals[3:] {
			sb.WriteString(v.Kind().String())
			sb.WriteByte(':')
			sb.WriteString(v.String())
			sb.WriteByte('\x00')
		}
		k.rest = sb.String()
	case len(vals) == 3:
		k.a, k.b, k.c = vals[0], vals[1], vals[2]
	case len(vals) == 2:
		k.a, k.b = vals[0], vals[1]
	case len(vals) == 1:
		k.a = vals[0]
	}
	return k
}
