package xxl

import (
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

// TestConformance runs every middleware operator through the iterator
// contract table.
func TestConformance(t *testing.T) {
	a := itertest.Ints("K T1 T2", []int64{1, 0, 5}, []int64{1, 3, 8}, []int64{2, 1, 4}, []int64{3, 0, 2}, []int64{3, 2, 6})
	b := itertest.Ints("K T1 T2", []int64{1, 4, 9}, []int64{3, 1, 3}, []int64{3, 5, 7}, []int64{4, 0, 1})
	byT1 := itertest.Ints("K T1 T2", []int64{1, 0, 5}, []int64{3, 0, 2}, []int64{2, 1, 4}, []int64{3, 2, 6}, []int64{1, 3, 8})
	counts := itertest.Ints("K T1 T2 N", []int64{1, 0, 3, 1}, []int64{1, 3, 5, 2}, []int64{1, 5, 8, 1},
		[]int64{2, 1, 4, 1}, []int64{3, 0, 2, 1}, []int64{3, 2, 6, 1})
	joined := itertest.Ints("K T1 T2 K T1 T2", []int64{1, 0, 5, 1, 4, 9}, []int64{1, 3, 8, 1, 4, 9},
		[]int64{3, 0, 2, 3, 1, 3}, []int64{3, 0, 2, 3, 5, 7}, []int64{3, 2, 6, 3, 1, 3}, []int64{3, 2, 6, 3, 5, 7})
	tjoined := itertest.Ints("K T1 T2 K", []int64{1, 4, 5, 1}, []int64{1, 4, 8, 1},
		[]int64{3, 1, 2, 3}, []int64{3, 2, 3, 3}, []int64{3, 5, 6, 3})
	dups := itertest.Ints("K V", []int64{1, 2}, []int64{1, 2}, []int64{3, 4}, []int64{1, 2}, []int64{3, 5})
	periods := itertest.Ints("G T1 T2", []int64{1, 1, 5}, []int64{1, 5, 9}, []int64{1, 8, 12}, []int64{1, 20, 25}, []int64{2, 3, 7})

	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE K >= 2")
	if err != nil {
		t.Fatal(err)
	}
	count := []AggSpec{{Kind: AggCount}}
	sort := func(mem int) func([]rel.Iterator) rel.Iterator {
		return func(in []rel.Iterator) rel.Iterator {
			s := NewSort(in[0], []int{1})
			s.MemTuples = mem
			return s
		}
	}
	one := []*rel.Relation{a}
	two := []*rel.Relation{a, b}
	itertest.Run(t, []itertest.Case{
		{Name: "Filter", Inputs: one, Want: itertest.Ints("K T1 T2", []int64{2, 1, 4}, []int64{3, 0, 2}, []int64{3, 2, 6}),
			Build: func(in []rel.Iterator) rel.Iterator {
				f, err := NewFilter(in[0], sel.Where)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}},
		{Name: "Project", Inputs: one,
			Want: itertest.Ints("T2 K", []int64{5, 1}, []int64{8, 1}, []int64{4, 2}, []int64{2, 3}, []int64{6, 3}),
			Build: func(in []rel.Iterator) rel.Iterator {
				return NewProject(in[0], []int{2, 0}, itertest.Ints("T2 K").Schema)
			}},
		{Name: "Sort", Inputs: one, Want: byT1, Build: sort(DefaultSortMemory)},
		{Name: "Sort/spill", Inputs: one, Want: byT1, Build: sort(2)},
		{Name: "TAggr", Inputs: one, Want: counts, Build: func(in []rel.Iterator) rel.Iterator {
			return NewTAggr(in[0], []int{0}, 1, 2, count, counts.Schema)
		}},
		{Name: "MergeJoin", Inputs: two, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return NewMergeJoin(in[0], in[1], []int{0}, []int{0})
		}},
		{Name: "TJoin", Inputs: two, Want: tjoined, Build: func(in []rel.Iterator) rel.Iterator {
			return NewTJoin(in[0], in[1], []int{0}, []int{0}, 1, 2, 1, 2)
		}},
		{Name: "DupElim", Inputs: []*rel.Relation{dups},
			Want:  itertest.Ints("K V", []int64{1, 2}, []int64{3, 4}, []int64{3, 5}),
			Build: func(in []rel.Iterator) rel.Iterator { return NewDupElim(in[0]) }},
		{Name: "Coalesce", Inputs: []*rel.Relation{periods},
			Want:  itertest.Ints("G T1 T2", []int64{1, 1, 12}, []int64{1, 20, 25}, []int64{2, 3, 7}),
			Build: func(in []rel.Iterator) rel.Iterator { return NewCoalesce(in[0], 1, 2) }},
	})
}

// TestConformanceStrings runs the middleware keepers over string
// columns. The poisoned inputs reuse their string bytes batch after
// batch, so a keeper that copied a row's values but not their bytes
// would read another row's strings.
func TestConformanceStrings(t *testing.T) {
	s, i := types.Str, types.Int
	a := strRel("K T1 T2", []types.Value{s("aa"), i(0), i(5)}, []types.Value{s("aa"), i(3), i(8)},
		[]types.Value{s("bb"), i(1), i(4)}, []types.Value{s("cc"), i(0), i(2)}, []types.Value{s("cc"), i(2), i(6)})
	b := strRel("K T1 T2", []types.Value{s("aa"), i(4), i(9)}, []types.Value{s("cc"), i(1), i(3)}, []types.Value{s("dd"), i(0), i(1)})
	count := []AggSpec{{Kind: AggCount}}
	counts := strRel("K T1 T2 N", []types.Value{s("aa"), i(0), i(3), i(1)}, []types.Value{s("aa"), i(3), i(5), i(2)},
		[]types.Value{s("aa"), i(5), i(8), i(1)}, []types.Value{s("bb"), i(1), i(4), i(1)},
		[]types.Value{s("cc"), i(0), i(2), i(1)}, []types.Value{s("cc"), i(2), i(6), i(1)})
	periods := strRel("G T1 T2", []types.Value{s("g1"), i(1), i(5)}, []types.Value{s("g1"), i(5), i(9)},
		[]types.Value{s("g1"), i(20), i(25)}, []types.Value{s("g2"), i(3), i(7)}, []types.Value{s("g2"), i(7), i(8)})
	// Key groups of three span the inputs' short batches.
	dup := strRel("K W", []types.Value{s("aa"), s("w1")}, []types.Value{s("aa"), s("w2")}, []types.Value{s("aa"), s("w3")},
		[]types.Value{s("cc"), s("w4")}, []types.Value{s("cc"), s("w5")}, []types.Value{s("cc"), s("w6")})
	joined := rel.New(a.Schema.Concat(dup.Schema))
	for _, l := range a.Tuples {
		for _, r := range dup.Tuples {
			if types.Equal(l[0], r[0]) {
				joined.Append(append(append(types.Tuple{}, l...), r...))
			}
		}
	}
	one, two := []*rel.Relation{a}, []*rel.Relation{a, b}
	itertest.Run(t, []itertest.Case{
		{Name: "MergeJoin", Inputs: []*rel.Relation{a, dup}, Want: joined, Build: func(in []rel.Iterator) rel.Iterator {
			return NewMergeJoin(in[0], in[1], []int{0}, []int{0})
		}},
		{Name: "Sort", Inputs: []*rel.Relation{b}, Want: strRel("K T1 T2", []types.Value{s("dd"), i(0), i(1)},
			[]types.Value{s("cc"), i(1), i(3)}, []types.Value{s("aa"), i(4), i(9)}),
			Build: func(in []rel.Iterator) rel.Iterator { return NewSort(in[0], []int{1}) }},
		{Name: "TAggr", Inputs: one, Want: counts, Build: func(in []rel.Iterator) rel.Iterator {
			return NewTAggr(in[0], []int{0}, 1, 2, count, counts.Schema)
		}},
		{Name: "TJoin", Inputs: two, Want: strRel("K T1 T2 K", []types.Value{s("aa"), i(4), i(5), s("aa")},
			[]types.Value{s("aa"), i(4), i(8), s("aa")}, []types.Value{s("cc"), i(1), i(2), s("cc")},
			[]types.Value{s("cc"), i(2), i(3), s("cc")}),
			Build: func(in []rel.Iterator) rel.Iterator { return NewTJoin(in[0], in[1], []int{0}, []int{0}, 1, 2, 1, 2) }},
		{Name: "Coalesce", Inputs: []*rel.Relation{periods},
			Want: strRel("G T1 T2", []types.Value{s("g1"), i(1), i(9)}, []types.Value{s("g1"), i(20), i(25)},
				[]types.Value{s("g2"), i(3), i(8)}),
			Build: func(in []rel.Iterator) rel.Iterator { return NewCoalesce(in[0], 1, 2) }},
	})
}

// strRel builds a relation of the given rows; cols names the columns,
// separated by spaces, and each column takes its first row's kind.
func strRel(cols string, rows ...[]types.Value) *rel.Relation {
	var schema types.Schema
	for c, name := range strings.Fields(cols) {
		schema.Cols = append(schema.Cols, types.Column{Name: name, Kind: rows[0][c].Kind()})
	}
	r := rel.New(schema)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}
