// Package schemaprop seeds the schema-propagation violation: an
// operator constructor that hard-codes its output columns instead of
// deriving them from the input iterators' schemas.
package schemaprop

import "tango/internal/types"

// iter is an iterator-shaped operator over the real algebra's schema
// type, so the analyzer recognizes both halves of the invariant.
type iter struct{ schema types.Schema }

func (i *iter) Schema() types.Schema                   { return i.schema }
func (*iter) Open() error                              { return nil }
func (*iter) Close() error                             { return nil }
func (*iter) NextBatch(dst []types.Tuple) (int, error) { return 0, nil }

// NewBad freezes column names at construction time; the schema
// silently diverges as soon as an upstream operator changes.
func NewBad(in *iter) *iter {
	s := types.Schema{Cols: []types.Column{
		{Name: "PosID", Kind: types.KindInt}, // want `operator constructor NewBad hard-codes output column "PosID"`
	}}
	_ = in
	return &iter{schema: s}
}

// NewBadKeyed uses the keyed form; still a literal.
func NewBadKeyed(in *iter) *iter {
	col := types.Column{Name: "Dept", Kind: types.KindString} // want `operator constructor NewBadKeyed hard-codes output column "Dept"`
	return &iter{schema: types.NewSchema(col)}
}

// NewGood derives the output schema from its input, the invariant the
// analyzer protects.
func NewGood(in *iter) *iter {
	return &iter{schema: in.Schema()}
}

// NewConcat derives a join-style schema from both inputs.
func NewConcat(left, right *iter) *iter {
	cols := append([]types.Column{}, left.Schema().Cols...)
	cols = append(cols, right.Schema().Cols...)
	return &iter{schema: types.Schema{Cols: cols}}
}

// NewParam takes a caller-shaped schema, the sanctioned pattern for
// projections and aggregations.
func NewParam(in *iter, out types.Schema) *iter {
	_ = in
	return &iter{schema: out}
}

// buildSchema is not a constructor; literals here are fine.
func buildSchema() types.Schema {
	return types.NewSchema(types.Column{Name: "T1", Kind: types.KindDate})
}

// NewSuppressed documents why its literal is safe; the harness
// verifies the directive keeps the finding quiet.
func NewSuppressed(in *iter) *iter {
	_ = in
	return &iter{schema: types.NewSchema(
		//lint:ignore schemaprop fixture: sentinel column, never read by rewrites
		types.Column{Name: "sentinel", Kind: types.KindInt},
	)}
}
