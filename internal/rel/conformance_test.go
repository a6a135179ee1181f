package rel_test

import (
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
)

func TestConformance(t *testing.T) {
	r := itertest.Ints("K V", []int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40}, []int64{5, 50})
	itertest.Run(t, []itertest.Case{
		{Name: "Relation.Iter", Want: r, Build: func([]rel.Iterator) rel.Iterator { return r.Iter() }},
		{Name: "Input", Inputs: []*rel.Relation{r}, Want: r, Build: func(in []rel.Iterator) rel.Iterator {
			h := rel.In(in[0])
			return &h
		}},
	})
}
