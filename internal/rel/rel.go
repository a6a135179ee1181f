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
// Row lifetime: a tuple NextBatch produces is valid until the next
// NextBatch or Close on the same iterator, so a producer writes each
// batch into memory it reuses for the next (a scan's decode arena, a
// projection's or a join's output rows). A consumer that keeps a tuple
// longer copies it into a types.Arena of its own. The keepers are few:
// the engine's hash-join build, nested-loop input and grouping; Drain;
// xxl's Sort (which also sorts the engine's ORDER BY and merge-join
// inputs), TAggr's group keys and string values, the merge joins' key
// groups and Coalesce's current row; the
// index-key and statistics collectors; and the server
// cursor, which gathers several batches into one fetch. Nobody writes
// to a tuple it did not make: an operator that edits a row, as
// coalescing does, edits its own copy.
type Iterator interface {
	// Schema describes the tuples the iterator produces.
	Schema() types.Schema
	// Open prepares the iterator (and, transitively, its inputs).
	Open() error
	// NextBatch writes the next 1..len(dst) tuples into dst (len(dst)
	// must be at least 1) and returns how many; fewer than len(dst) does
	// not mean the end. 0 is end of stream, and every later call until
	// the next Open returns 0 again. A non-nil error ends the stream; the
	// count returned with it is 0. The tuples are valid until the next
	// NextBatch or Close, and not the caller's to modify (see the
	// row-lifetime rule above); dst itself stays the caller's.
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
// closing it on every path. It keeps every row, so it copies them into
// an arena of the relation's own.
func Drain(it Iterator) (*Relation, error) {
	var rows types.Arena
	if err := Each(it, func(t types.Tuple) error {
		rows.Keep(t)
		return nil
	}); err != nil {
		return nil, err
	}
	return &Relation{Schema: it.Schema(), Tuples: rows.Rows()}, nil
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
