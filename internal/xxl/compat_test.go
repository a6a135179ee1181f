package xxl

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
)

// The benchmark module still sets Sort.Parallelism and calls the
// partitioned constructors. These tests pin that both leave results
// unchanged: SORT^M is list-equal to a stable reference sort whatever
// the knob says, in memory and spilled, and NewPTAggr's operator is
// list-equal to NewTAggr's.

// randomRel builds n rows of (K, Seq, V) with duplicate-heavy keys so
// stability is observable via the Seq column.
func randomRel(n, keySpace int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Seq", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindString},
	))
	for i := 0; i < n; i++ {
		r.Append(types.Tuple{
			types.Int(rng.Int63n(int64(keySpace))),
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("v%d", i)),
		})
	}
	return r
}

// stableSorted is the reference: the input stably sorted on keys.
func stableSorted(in *rel.Relation, keys []int, descs []bool) *rel.Relation {
	out := in.Clone()
	slices.SortStableFunc(out.Tuples, func(a, b types.Tuple) int {
		return types.CompareTuples(a, b, keys, descs)
	})
	return out
}

// TestSortParallelMatchesSequential: SORT^M is list-equal to a stable
// sort of its input on the in-memory and the spilling path, with the
// deprecated Parallelism knob unset and set.
func TestSortParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		memTuples int
	}{
		{"inmemory", 20000, 0},        // one arena, no spill
		{"spill", 30000, 1000},        // ~30 runs
		{"spill-tiny-runs", 5000, 64}, // many small runs
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer itertest.Goroutines(t)()
			in := randomRel(tc.n, 50, 7)
			want := stableSorted(in, []int{0}, nil)
			for _, par := range []int{0, 2, 4, 7} {
				s := NewSort(in.Iter(), []int{0})
				s.MemTuples = tc.memTuples
				s.Parallelism = par
				got, err := rel.Drain(s)
				if err != nil {
					t.Fatal(err)
				}
				if !rel.EqualAsLists(want, got) {
					t.Fatalf("par=%d: sort differs from the stable reference", par)
				}
			}
		})
	}
}

// TestSortParallelDesc: a spilled descending multi-key sort is
// list-equal to the stable reference.
func TestSortParallelDesc(t *testing.T) {
	in := randomRel(8000, 20, 11)
	want := stableSorted(in, []int{0, 2}, []bool{true, false})
	s := NewSortDesc(in.Iter(), []int{0, 2}, []bool{true, false})
	s.Parallelism = 4
	s.MemTuples = 500
	got, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(want, got) {
		t.Fatal("spilled desc sort differs from the stable reference")
	}
}

// errAfterIter yields n tuples then fails.
type errAfterIter struct {
	schema types.Schema
	n      int
	pos    int
}

func (e *errAfterIter) Schema() types.Schema { return e.schema }
func (e *errAfterIter) Open() error          { e.pos = 0; return nil }
func (e *errAfterIter) Close() error         { return nil }
func (e *errAfterIter) NextBatch(dst []types.Tuple) (int, error) {
	if e.pos >= e.n {
		return 0, fmt.Errorf("xxl_test: synthetic input failure")
	}
	n := min(len(dst), e.n-e.pos)
	for i := range dst[:n] {
		e.pos++
		dst[i] = types.Tuple{types.Int(int64(e.n - e.pos)), types.Int(int64(e.pos))}
	}
	return n, nil
}

// TestSortParallelInputError: an input error after several spilled
// runs surfaces from Open and leaks no goroutine.
func TestSortParallelInputError(t *testing.T) {
	defer itertest.Goroutines(t)()
	s2 := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Seq", Kind: types.KindInt},
	)
	srt := NewSort(&errAfterIter{schema: s2, n: 5000}, []int{0})
	srt.MemTuples = 256
	srt.Parallelism = 4
	err := srt.Open()
	if err == nil {
		_ = srt.Close()
		t.Fatal("expected input error")
	}
	if !strings.Contains(err.Error(), "synthetic input failure") {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestSortParallelCloseEarly: closing a spilled sort before exhausting
// it succeeds and leaks no goroutine.
func TestSortParallelCloseEarly(t *testing.T) {
	defer itertest.Goroutines(t)()
	in := randomRel(10000, 30, 3)
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = 512
	s.Parallelism = 4
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.NextBatch(make([]types.Tuple, 10)); err != nil || n != 10 { // read a few, then abandon
		t.Fatalf("NextBatch: n=%d err=%v", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSortedChunksStability: equal keys in different spilled runs
// come out in run order (= original input order).
func TestMergeSortedChunksStability(t *testing.T) {
	mk := func(k, seq int) []interface{} { return []interface{}{k, seq} }
	in := mkRel("K,Seq",
		mk(1, 0), mk(2, 1), mk(2, 2), // run 1
		mk(1, 3), mk(2, 4), mk(0, 5), // run 2
		mk(2, 6), // run 3
	)
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = 3
	out, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := []int64{5, 0, 3, 1, 2, 4, 6}
	if len(out.Tuples) != len(wantSeq) {
		t.Fatalf("len = %d", len(out.Tuples))
	}
	for i, w := range wantSeq {
		if out.Tuples[i][1].AsInt() != w {
			t.Fatalf("pos %d: seq %d, want %d (order %v)", i, out.Tuples[i][1].AsInt(), w, out.Tuples)
		}
	}
}

// temporalRel builds n rows of (G, V, T1, T2) sorted on (G, T1).
func temporalRel(n, groups int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		s := rng.Int63n(300)
		r.Append(types.Tuple{
			types.Int(rng.Int63n(int64(groups))),
			types.Int(rng.Int63n(100)),
			types.Int(s),
			types.Int(s + 1 + rng.Int63n(40)),
		})
	}
	r.SortBy("G", "T1")
	return r
}

// TestPTAggrMatchesSequential: the operator NewPTAggr builds is
// list-equal to NewTAggr's for every aggregate kind and parallelism,
// also on one giant group and on an empty input.
func TestPTAggrMatchesSequential(t *testing.T) {
	defer itertest.Goroutines(t)()
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	for _, tc := range []struct {
		name string
		in   *rel.Relation
	}{
		{"groups", temporalRel(6000, 37, 5)},
		{"one-group", temporalRel(3000, 1, 6)},
		{"empty", temporalRel(0, 1, 7)},
	} {
		for _, agg := range []AggSpec{
			{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1},
			{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
		} {
			want, err := rel.Drain(NewTAggr(tc.in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4, 8} {
				got, err := rel.Drain(NewPTAggr(tc.in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out, par))
				if err != nil {
					t.Fatal(err)
				}
				if !rel.EqualAsLists(want, got) {
					t.Fatalf("%s: agg %s par %d: NewPTAggr differs from NewTAggr", tc.name, agg.Kind, par)
				}
			}
		}
	}
}
