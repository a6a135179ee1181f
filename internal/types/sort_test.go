package types

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortCase draws n rows (key0, key1, seq) whose keys come from gen, so
// few distinct values make for long runs of ties; seq records the input
// position, which a stable sort must keep in order within a tie.
func sortCase(rng *rand.Rand, n int, gen func(*rand.Rand) Value) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{gen(rng), gen(rng), Int(int64(i))}
	}
	return rows
}

func TestSortTuplesMatchesReference(t *testing.T) {
	gens := map[string]func(*rand.Rand) Value{
		// The fast path: integers, dates and booleans only.
		"ints": func(r *rand.Rand) Value {
			switch r.Intn(3) {
			case 0:
				return Date(r.Int63n(5))
			case 1:
				return Bool(r.Intn(2) == 0)
			}
			return Int(r.Int63n(5) - 2)
		},
		"extremes": func(r *rand.Rand) Value {
			return Int([]int64{-1 << 63, -1, 0, 1, 1<<63 - 1}[r.Intn(5)])
		},
		// The fallback: NULLs, and ints against floats on one axis.
		"nulls": func(r *rand.Rand) Value {
			if r.Intn(3) == 0 {
				return Null
			}
			return Int(r.Int63n(4))
		},
		"mixed": func(r *rand.Rand) Value {
			switch r.Intn(4) {
			case 0:
				return Float(float64(r.Intn(8)) / 2)
			case 1:
				return Null
			case 2:
				return Str(fmt.Sprint(r.Intn(4)))
			}
			return Int(r.Int63n(4))
		},
	}
	rng := rand.New(rand.NewSource(14))
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 50, 1000} {
			for _, desc := range [][]bool{nil, {true}, {false, true}, {true, true}} {
				rows := sortCase(rng, n, gen)
				want := append([]Tuple(nil), rows...)
				keys := []int{0, 1}
				sort.SliceStable(want, func(i, j int) bool {
					return CompareTuples(want[i], want[j], keys, desc) < 0
				})
				SortTuples(rows, keys, desc)
				for i := range want {
					if rows[i][2].AsInt() != want[i][2].AsInt() {
						t.Fatalf("%s n=%d desc=%v: position %d holds input row %v, reference has %v",
							name, n, desc, i, rows[i], want[i])
					}
				}
			}
		}
	}
}

// TestSortTuplesFuncKeys: computed keys see each row, not its position.
func TestSortTuplesFuncKeys(t *testing.T) {
	rows := []Tuple{{Int(3)}, {Int(-1)}, {Int(2)}, {Int(-2)}}
	SortTuplesFunc(rows, 1, func(t Tuple, _ int) Value {
		return Int(t[0].AsInt() * t[0].AsInt())
	}, nil)
	if got := fmt.Sprint(rows); got != "[(-1) (2) (-2) (3)]" {
		t.Errorf("sorted by square: %s", got)
	}
}

func BenchmarkSortTuples(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(key func(i int) Value) []Tuple {
		rows := make([]Tuple, 12000)
		for i := range rows {
			rows[i] = Tuple{key(rng.Intn(2000)), Date(rng.Int63n(4000)), Str("payload")}
		}
		return rows
	}
	for _, bc := range []struct {
		name string
		rows []Tuple
	}{
		{"intkeys", mk(func(i int) Value { return Int(int64(i)) })},
		{"mixedkeys", mk(func(i int) Value { return Str(fmt.Sprintf("P%04d", i)) })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			work := make([]Tuple, len(bc.rows))
			for i := 0; i < b.N; i++ {
				copy(work, bc.rows)
				SortTuples(work, []int{0, 1}, nil)
			}
			b.ReportMetric(float64(len(work))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
