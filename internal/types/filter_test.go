package types_test

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"tango/internal/eval"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// filterOps pairs each comparison operator with the Compare outcomes
// under which "value op literal" holds.
var filterOps = []struct {
	op   sqlast.BinaryOp
	pass types.Outcomes
}{
	{sqlast.OpEq, types.Equals}, {sqlast.OpNe, types.Below | types.Above},
	{sqlast.OpLt, types.Below}, {sqlast.OpLe, types.Below | types.Equals},
	{sqlast.OpGt, types.Above}, {sqlast.OpGe, types.Above | types.Equals},
}

// fuzzBytes hands out the fuzzer's bytes, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	x := (*b)[0]
	*b = (*b)[1:]
	return x
}

// value draws a value of kind k from a small pool per kind, so rows
// and literals collide often: the edges of every width, MinInt64 and
// MaxInt64, NaN, ±0.0 and ±Inf, and strings that read as numbers.
func (b *fuzzBytes) value(k types.Kind) types.Value {
	x := b.next()
	switch k {
	case types.KindInt:
		return types.Int([]int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 255, 256, 65536}[x%8] + int64(int8(x>>3)))
	case types.KindFloat:
		return types.Float([]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25, 255}[x%8] +
			float64(x>>5))
	case types.KindString:
		return types.Str([]string{"", "a", "ab", "b", "10", "-0", "NaN", "1.5", "1970-01-02", "true"}[x%10] +
			strconv.Itoa(int(x>>6)))
	case types.KindDate:
		return types.Date(int64(int8(x)))
	case types.KindBool:
		return types.Bool(x&1 != 0)
	}
	return types.Null
}

// anyKind draws a kind, NULL included.
func (b *fuzzBytes) anyKind() types.Kind { return types.Kind(b.next() % 6) }

// fuzzRows builds a block's rows: up to 4 columns and 1 to 200 rows, each
// column of one kind, mixed kinds, NULL-bearing or constant.
func fuzzRows(b *fuzzBytes) ([]types.Tuple, types.Schema) {
	arity := 1 + int(b.next()%4)
	rows := make([]types.Tuple, 1+int(b.next())*200/256)
	for r := range rows {
		rows[r] = make(types.Tuple, arity)
	}
	cols := make([]types.Column, arity)
	for c := range cols {
		cols[c].Name = fmt.Sprintf("c%d", c)
		shape := b.next()
		k := types.Kind(1 + shape%5)
		konst := b.value(k)
		for _, row := range rows {
			switch {
			case shape&0x08 != 0 && b.next()%4 == 0:
				// NULL-bearing
			case shape&0x10 != 0:
				row[c] = konst
			case shape&0x20 != 0:
				row[c] = b.value(b.anyKind())
			default:
				row[c] = b.value(k)
			}
		}
	}
	return rows, types.NewSchema(cols...)
}

// FuzzBlockFilter holds DecodeBlock's conjuncts to eval: for any block
// and any set of "column op literal" conjuncts, decoding with them
// returns exactly the rows that decoding without them returns and the
// compiled conjuncts pass, under a column mask and a row range too.
func FuzzBlockFilter(f *testing.F) {
	f.Add([]byte{3, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{3, 0, 0, 1, 0, 1, 2, 1, 2, 3, 2, 0, 0})
	f.Add([]byte{1, 90, 0x0a, 7}, []byte{1, 0, 3, 1, 7, 0xff, 1})     // floats with NULLs, NaN literal
	f.Add([]byte{2, 200, 0x23, 1}, []byte{2, 0, 5, 2, 3, 1, 1, 0})    // mixed column, string literal
	f.Add([]byte{0, 120, 0x11, 9}, []byte{1, 0, 1, 1, 0, 0, 0})       // constant int column
	f.Add([]byte{1, 255, 0x0c, 3}, []byte{2, 0, 2, 0, 3, 0, 1, 3, 0}) // date column, MinInt64 literal
	f.Fuzz(func(t *testing.T, data, spec []byte) {
		src, sp := fuzzBytes(data), fuzzBytes(spec)
		rows, schema := fuzzRows(&src)
		enc, n := types.AppendBlock(nil, rows)
		if n != len(rows) {
			t.Fatalf("AppendBlock took %d of %d rows", n, len(rows))
		}
		var (
			where []types.Conjunct
			exprs []sqlast.Expr
		)
		for range sp.next() % 4 {
			c, op := int(sp.next())%len(schema.Cols), filterOps[sp.next()%6]
			lit := sp.value(sp.anyKind())
			if x := sp.next(); x&1 != 0 && len(rows) > 0 {
				lit = rows[int(x>>1)%len(rows)][c] // a value of the block
			}
			if lit.IsNull() {
				continue // never pushed: "c = NULL" holds for no row
			}
			where = append(where, types.Conjunct{Col: c, Lit: lit, Pass: op.pass})
			exprs = append(exprs, sqlast.BinaryExpr{Op: op.op,
				Left: sqlast.ColumnRef{Name: schema.Cols[c].Name}, Right: sqlast.Literal{Value: lit}})
		}
		var cols []int
		if mask := sp.next(); mask&0x80 == 0 {
			cols = []int{}
			for c := range schema.Cols {
				if mask&(1<<c) != 0 {
					cols = append(cols, c)
				}
			}
		}
		lo, hi := int(sp.next()%8), len(rows)-int(sp.next()%8)
		if sp.next()&1 != 0 {
			hi = -1
		}

		all, _, err := types.DecodeBlock(nil, nil, enc, nil, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var pred eval.Func
		if len(exprs) > 0 {
			if pred, err = eval.Compile(sqlast.AndAll(exprs), schema); err != nil {
				t.Fatal(err)
			}
		}
		var want []types.Tuple
		for _, row := range all {
			if pred != nil {
				v, err := pred(row)
				if err != nil {
					t.Fatal(err)
				}
				if v.IsNull() || !v.AsBool() {
					continue
				}
			}
			if cols != nil {
				kept := types.Tuple{}
				for _, c := range cols {
					kept = append(kept, row[c])
				}
				row = kept
			}
			want = append(want, row)
		}
		got, _, err := types.DecodeBlock(nil, nil, enc, cols, lo, hi, where...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v over rows [%d,%d) of %d: %d rows, want %d", exprs, lo, hi, len(rows), len(got), len(want))
		}
		for i := range got {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("%v: row %d = %v, want %v", exprs, i, got[i], want[i])
			}
		}
	})
}

// sameRow reports whether two rows hold the same values, kind for kind
// and a float's bits exactly.
func sameRow(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch {
		case a[i].Kind() != b[i].Kind():
			return false
		case a[i].Kind() == types.KindFloat:
			if math.Float64bits(a[i].AsFloat()) != math.Float64bits(b[i].AsFloat()) {
				return false
			}
		case !types.Equal(a[i], b[i]):
			return false
		}
	}
	return true
}
