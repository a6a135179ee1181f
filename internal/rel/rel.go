// Package rel defines the iterator (cursor) contract shared by the
// middleware execution engine and the DBMS engine, plus materialized
// relations and the two equality notions from the paper: list equality
// (same tuples in the same order) and multiset equality (same tuples
// with the same multiplicities, order ignored).
package rel

import (
	"errors"
	"strings"

	"tango/internal/types"
)

// Iterator is the one cursor protocol of both execution engines (the
// paper's XXL result sets with init()/getNext()/close()): every operator
// produces its rows through NextBatch, a batch at a time. Code that
// really consumes one row at a time reads through a Reader.
//
// Lifecycle: Schema is valid before Open. Open prepares the iterator
// and, transitively, its inputs; it may fail part way, having opened
// some inputs and not others. NextBatch is called only after a
// successful Open. Close is legal in every state — after a failed
// Open, after end of stream, without any Open, and a second time — and
// reaches every input the operator owns exactly once per Open: an
// operator that closes an input itself (a sort draining its input
// inside Open) does not close it again, and one that never got to open
// an input still closes it (a transfer whose dependency load failed
// still has a temp table to drop). Open after Close starts the stream
// again.
//
// Row lifetime: a produced tuple is immutable and stays valid for as
// long as anyone references it. A producer never writes to a tuple it
// has returned and never hands the same backing memory out twice; a
// consumer may keep a tuple (a sort buffer, a join build side, a
// drained relation) without copying it, and must not write to it — an
// operator that edits a row, as coalescing does, edits its own copy.
// Tuples of one heap page or wire batch share one decode slab
// (types.DecodeBlock), which is plain garbage-collected memory and is never
// pooled, so keeping one tuple keeps its slab. A consumer that keeps
// only a few values for long — index keys, column statistics — detaches
// them (Value.Detach) rather than pin a slab per value.
type Iterator interface {
	// Schema describes the tuples the iterator produces.
	Schema() types.Schema
	// Open prepares the iterator (and, transitively, its inputs).
	Open() error
	// NextBatch writes the next 1..len(dst) tuples into dst (len(dst)
	// must be at least 1) and returns how many; fewer than len(dst) does
	// not mean the end. 0 is end of stream, and every later call until
	// the next Open returns 0 again. A non-nil error ends the stream; the
	// count returned with it is 0. The tuples are the caller's to keep
	// but not to modify (see the row-lifetime rule above); dst itself
	// stays the caller's.
	NextBatch(dst []types.Tuple) (int, error)
	// Close releases the iterator's resources and closes its inputs,
	// under the lifecycle rule above.
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
func (r *Relation) Iter() Iterator { return &sliceIter{rel: r} }

type sliceIter struct {
	rel    *Relation
	cur    Cursor
	opened bool
}

func (it *sliceIter) Schema() types.Schema { return it.rel.Schema }
func (it *sliceIter) Open() error          { it.cur.Reset(it.rel.Tuples); it.opened = true; return nil }
func (it *sliceIter) Close() error         { return nil }

func (it *sliceIter) NextBatch(dst []types.Tuple) (int, error) {
	if !it.opened {
		return 0, errors.New("rel: iterator not opened")
	}
	return it.cur.Read(dst), nil
}

// Drain materializes an iterator into a relation, opening it and
// closing it on every path. The relation holds the produced tuples
// themselves (they are immutable).
func Drain(it Iterator) (*Relation, error) {
	out := New(it.Schema())
	if err := Each(it, func(t types.Tuple) error {
		out.Tuples = append(out.Tuples, t)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
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
		counts[t.Key()]++
	}
	for _, t := range b.Tuples {
		k := t.Key()
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
		seen[t[idx:idx+1].Key()] = true
	}
	return len(seen)
}
