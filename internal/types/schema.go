package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Column describes one attribute of a relation schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. Column names are matched
// case-insensitively, and may be qualified ("A.PosID"); an unqualified
// lookup matches the unqualified part.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// Len returns the number of columns.
func (s Schema) Len() int { return len(s.Cols) }

// ColumnIndex finds the index of the named column, or -1. A qualified
// name must match exactly (case-insensitive); an unqualified name
// matches the first column whose unqualified part equals it.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	if !strings.Contains(name, ".") {
		for i, c := range s.Cols {
			if dot := strings.LastIndexByte(c.Name, '.'); dot >= 0 &&
				strings.EqualFold(c.Name[dot+1:], name) {
				return i
			}
		}
	}
	return -1
}

// MustIndex is ColumnIndex but panics if the column is missing; for
// internal plan construction where schemas were already validated.
func (s Schema) MustIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("types: no column %q in schema %v", name, s.Names()))
	}
	return i
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Project returns the schema restricted to the given column indexes.
func (s Schema) Project(idx []int) Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Cols[j]
	}
	return Schema{Cols: cols}
}

// Concat returns the concatenation of two schemas (join output). Column
// names from the right side that collide with the left are kept as-is;
// callers qualify names to disambiguate.
func (s Schema) Concat(t Schema) Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, t.Cols...)
	return Schema{Cols: cols}
}

// Qualify returns a copy of the schema with every unqualified column
// name prefixed by alias.
func (s Schema) Qualify(alias string) Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = Column{Name: alias + "." + name, Kind: c.Kind}
	}
	return Schema{Cols: cols}
}

// Unqualified returns a copy of the schema with qualifiers stripped.
func (s Schema) Unqualified() Schema {
	cols := make([]Column, len(s.Cols))
	for i, c := range s.Cols {
		name := c.Name
		if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
			name = name[dot+1:]
		}
		cols[i] = Column{Name: name, Kind: c.Kind}
	}
	return Schema{Cols: cols}
}

// String renders the schema as "(name TYPE, ...)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Equal reports whether two schemas have the same column names
// (case-insensitive) and kinds in the same order.
func (s Schema) Equal(t Schema) bool {
	if len(s.Cols) != len(t.Cols) {
		return false
	}
	for i := range s.Cols {
		if !strings.EqualFold(s.Cols[i].Name, t.Cols[i].Name) || s.Cols[i].Kind != t.Cols[i].Kind {
			return false
		}
	}
	return true
}

// Tuple is one row of a relation.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Key renders the tuple as a map key: tuples whose values are pairwise
// Equal get equal keys, so Int(2), Float(2) and Date(2) share one, as
// do all NaNs, and NULL is a key of its own (never Str("N")'s).
// Multiset equality keys rows here. Key does not call Compare, so the
// tests hold Compare, Hash and KeyTable to it as an independent oracle.
func (t Tuple) Key() string {
	buf := make([]byte, 0, 64)
	for _, v := range t {
		switch {
		case v.kind == KindNull:
			buf = append(buf, 'N')
		case v.kind == KindString:
			buf = binary.AppendUvarint(append(buf, 's'), uint64(v.n))
			buf = append(buf, v.str()...)
		case v.kind == KindFloat:
			// An integral float keys as the integer it equals.
			if f := v.float(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
				buf = binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(int64(f)))
			} else if math.IsNaN(f) {
				buf = append(buf, 'n')
			} else {
				buf = binary.BigEndian.AppendUint64(append(buf, 'f'), uint64(v.n))
			}
		default:
			buf = binary.BigEndian.AppendUint64(append(buf, 'i'), uint64(v.n))
		}
	}
	return string(buf)
}

// ByteSize returns the approximate size of the tuple in bytes.
func (t Tuple) ByteSize() int {
	n := 0
	for _, v := range t {
		n += v.ByteSize()
	}
	return n
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// CompareTuples orders tuples by the given key column indexes; missing
// keys (index out of range) compare equal. desc[i], when provided,
// reverses key i.
func CompareTuples(a, b Tuple, keys []int, desc []bool) int {
	for i, k := range keys {
		if k >= len(a) || k >= len(b) {
			continue
		}
		c := Compare(a[k], b[k])
		if c != 0 {
			if i < len(desc) && desc[i] {
				return -c
			}
			return c
		}
	}
	return 0
}

// TupleEqualOn reports whether two tuples agree on the given columns.
func TupleEqualOn(a, b Tuple, keys []int) bool {
	for _, k := range keys {
		if !Equal(a[k], b[k]) {
			return false
		}
	}
	return true
}
