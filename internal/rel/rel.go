// Package rel defines the iterator (cursor) contract shared by the
// middleware execution engine and the DBMS engine, plus materialized
// relations and the two equality notions from the paper: list equality
// (same tuples in the same order) and multiset equality (same tuples
// with the same multiplicities, order ignored).
package rel

import (
	"fmt"
	"strings"

	"tango/internal/types"
)

// Iterator is the pipelined cursor interface (the paper's XXL result
// sets with init()/getNext()). Open must be called before Next; Next
// returns ok=false at end of stream; Close releases resources and is
// idempotent.
//
// Row lifetime: a produced tuple is immutable and stays valid for as
// long as anyone references it. A producer never writes to a tuple it
// has returned and never hands the same backing memory out twice; a
// consumer may keep a tuple (a sort buffer, a join build side, a
// drained relation) without copying it, and must not write to it — an
// operator that edits a row, as coalescing does, edits its own copy.
// Tuples of one heap page or wire batch share one decode slab
// (types.Slab), which is plain garbage-collected memory and is never
// pooled, so keeping one tuple keeps its slab. A consumer that keeps
// only a few values for long — index keys, column statistics — detaches
// them (Value.Detach) rather than pin a slab per value.
type Iterator interface {
	// Schema describes the tuples the iterator produces. It must be
	// valid before Open.
	Schema() types.Schema
	// Open prepares the iterator (and, transitively, its inputs).
	Open() error
	// Next returns the next tuple, the caller's to keep but not to
	// modify (see the row-lifetime rule above).
	Next() (types.Tuple, bool, error)
	// Close releases resources.
	Close() error
}

// Relation is a fully materialized relation: a schema plus an ordered
// list of tuples. Relations are *lists* — duplicates and order are
// significant, matching the paper's algebra.
type Relation struct {
	Schema types.Schema
	Tuples []types.Tuple
}

// New creates an empty relation with the given schema.
func New(schema types.Schema) *Relation {
	return &Relation{Schema: schema}
}

// Append adds a tuple (not copied).
func (r *Relation) Append(t types.Tuple) { r.Tuples = append(r.Tuples, t) }

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// ByteSize returns the total approximate byte size of all tuples.
func (r *Relation) ByteSize() int {
	n := 0
	for _, t := range r.Tuples {
		n += t.ByteSize()
	}
	return n
}

// AvgTupleSize returns the average tuple size in bytes (0 if empty).
func (r *Relation) AvgTupleSize() float64 {
	if len(r.Tuples) == 0 {
		return 0
	}
	return float64(r.ByteSize()) / float64(len(r.Tuples))
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := New(r.Schema)
	c.Tuples = make([]types.Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// SortBy sorts the relation in place by the given column names
// (ascending). Sorting is stable.
func (r *Relation) SortBy(cols ...string) {
	keys := make([]int, len(cols))
	for i, c := range cols {
		keys[i] = r.Schema.MustIndex(c)
	}
	types.SortTuples(r.Tuples, keys, nil)
}

// IsSortedBy reports whether the relation is ordered by the given
// column indexes.
func (r *Relation) IsSortedBy(keys []int) bool {
	for i := 1; i < len(r.Tuples); i++ {
		if types.CompareTuples(r.Tuples[i-1], r.Tuples[i], keys, nil) > 0 {
			return false
		}
	}
	return true
}

// String renders the relation as a small table for debugging.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Schema.Names(), " | "))
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// Iter returns an iterator over the relation's tuples.
func (r *Relation) Iter() Iterator { return &sliceIter{rel: r, pos: -1} }

type sliceIter struct {
	rel *Relation
	pos int
}

func (it *sliceIter) Schema() types.Schema { return it.rel.Schema }
func (it *sliceIter) Open() error          { it.pos = 0; return nil }
func (it *sliceIter) Close() error         { return nil }

func (it *sliceIter) Next() (types.Tuple, bool, error) {
	if it.pos < 0 {
		return nil, false, fmt.Errorf("rel: iterator not opened")
	}
	if it.pos >= len(it.rel.Tuples) {
		return nil, false, nil
	}
	t := it.rel.Tuples[it.pos]
	it.pos++
	return t, true, nil
}

// Drain materializes an iterator into a relation, opening and closing
// it. The relation holds the produced tuples themselves (they are
// immutable). Batch-native iterators are drained a batch at a time.
func Drain(it Iterator) (*Relation, error) {
	out := New(it.Schema())
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	dst := make([]types.Tuple, DefaultBatchSize)
	for {
		n, err := NextBatch(it, dst)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		out.Tuples = append(out.Tuples, dst[:n]...)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// tupleKey renders a tuple into a canonical comparable string; values
// that compare equal produce equal keys (e.g. Int(2) vs Float(2)).
func tupleKey(t types.Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		if v.IsNull() {
			b.WriteString("\x00N")
			continue
		}
		switch v.Kind() {
		case types.KindString:
			b.WriteString("s:")
			b.WriteString(v.AsString())
		default:
			fmt.Fprintf(&b, "n:%v", v.AsFloat())
		}
	}
	return b.String()
}

// EqualAsLists reports list equality: same length and pairwise equal
// tuples in order.
func EqualAsLists(a, b *Relation) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			return false
		}
		for j := range a.Tuples[i] {
			if !types.Equal(a.Tuples[i][j], b.Tuples[i][j]) {
				return false
			}
		}
	}
	return true
}

// EqualAsMultisets reports multiset equality: same tuples with the same
// multiplicities, order ignored.
func EqualAsMultisets(a, b *Relation) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	counts := make(map[string]int, len(a.Tuples))
	for _, t := range a.Tuples {
		counts[tupleKey(t)]++
	}
	for _, t := range b.Tuples {
		k := tupleKey(t)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// DistinctCount returns the number of distinct values in the given
// column.
func (r *Relation) DistinctCount(col string) int {
	idx := r.Schema.MustIndex(col)
	seen := make(map[string]bool)
	for _, t := range r.Tuples {
		seen[tupleKey(types.Tuple{t[idx]})] = true
	}
	return len(seen)
}
