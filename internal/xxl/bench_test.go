package xxl

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

func benchRelation(n int, groups int64, maxDur int64, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		s := rng.Int63n(100000)
		r.Append(types.Tuple{
			types.Int(rng.Int63n(groups)), types.Int(rng.Int63n(1000)),
			types.Int(s), types.Int(s + 1 + rng.Int63n(maxDur)),
		})
	}
	r.SortBy("G", "T1")
	return r
}

// BenchmarkTAggrSweep measures the §3.4 sweep across aggregate kinds.
func BenchmarkTAggrSweep(b *testing.B) {
	in := benchRelation(50000, 100, 2000, 1)
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	for _, spec := range []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggMax, Col: 1},
	} {
		b.Run(string(spec.Kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ta := NewTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{spec}, out)
				got, err := rel.Drain(ta)
				if err != nil {
					b.Fatal(err)
				}
				if got.Cardinality() == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
}

// BenchmarkSortSpill compares in-memory and spilling external sorts.
func BenchmarkSortSpill(b *testing.B) {
	in := benchRelation(100000, 1000, 100, 2)
	for _, mem := range []int{1 << 20, 4096} {
		name := "in-memory"
		if mem < 100000 {
			name = fmt.Sprintf("spill-%d", mem)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewSort(in.Iter(), []int{2})
				s.MemTuples = mem
				got, err := rel.Drain(s)
				if err != nil {
					b.Fatal(err)
				}
				if got.Cardinality() != in.Cardinality() {
					b.Fatal("lost rows")
				}
			}
		})
	}
}

// BenchmarkTJoinOverlap measures the temporal merge join.
func BenchmarkTJoinOverlap(b *testing.B) {
	l := benchRelation(20000, 500, 1000, 3)
	r := benchRelation(20000, 500, 1000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tj := NewTJoin(l.Iter(), r.Iter(), []int{0}, []int{0}, 2, 3, 2, 3)
		got, err := rel.Drain(tj)
		if err != nil {
			b.Fatal(err)
		}
		if got.Cardinality() == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkMergeJoin measures the regular sort-merge join.
func BenchmarkMergeJoin(b *testing.B) {
	l := benchRelation(50000, 2000, 100, 5)
	r := benchRelation(50000, 2000, 100, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mj := NewMergeJoin(l.Iter(), r.Iter(), []int{0}, []int{0})
		got, err := rel.Drain(mj)
		if err != nil {
			b.Fatal(err)
		}
		if got.Cardinality() == 0 {
			b.Fatal("empty join")
		}
	}
}
