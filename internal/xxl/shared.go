package xxl

import (
	"errors"

	"tango/internal/rel"
	"tango/internal/types"
)

// SharedSource materializes an inner iterator once and serves any
// number of independent readers over the buffered tuples. It
// implements the §7 refinement of the paper: "if a query is to access
// the same DBMS relation twice (even if the projected attributes are
// different), it would be beneficial to issue only one T^M operation."
// The execution layer wraps duplicate TRANSFER^M statements in one
// SharedSource and hands each consumer a Reader.
type SharedSource struct {
	in  rel.Iterator
	rel *rel.Relation
	err error
	ran bool
}

// NewSharedSource wraps an iterator for multi-reader use.
func NewSharedSource(in rel.Iterator) *SharedSource {
	return &SharedSource{in: in}
}

// materialize drains (and so closes) the inner iterator exactly once.
func (s *SharedSource) materialize() error {
	if !s.ran {
		s.ran = true
		s.rel, s.err = rel.Drain(s.in)
	}
	return s.err
}

// Reader returns a new independent iterator over the shared tuples.
func (s *SharedSource) Reader() *SharedReader {
	return &SharedReader{src: s}
}

// SharedReader is one consumer of a SharedSource.
type SharedReader struct {
	src *SharedSource
	cur rel.Cursor
}

// Schema returns the source schema.
func (r *SharedReader) Schema() types.Schema { return r.src.in.Schema() }

// Open triggers the one-time materialization.
func (r *SharedReader) Open() error {
	if err := r.src.materialize(); err != nil {
		return err
	}
	r.cur.Reset(r.src.rel.Tuples)
	return nil
}

// NextBatch serves the shared tuples.
func (r *SharedReader) NextBatch(dst []types.Tuple) (int, error) { return r.cur.Read(dst), nil }

// Close releases nothing of the shared buffer. When no reader has
// opened the source yet — a plan torn down before it ran — the first
// Close closes the source's input in its place, and the source stays
// unusable.
func (r *SharedReader) Close() error {
	r.cur.Reset(nil)
	if s := r.src; !s.ran {
		s.ran, s.err = true, errors.New("xxl: shared source closed before it was read")
		return s.in.Close()
	}
	return nil
}
