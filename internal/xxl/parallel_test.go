package xxl

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
)

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

// TestSortParallelMatchesSequential: the parallel sort must produce a
// tuple-for-tuple identical (list-equal) result to the sequential
// sort, for both the in-memory and the spilling path — order
// preservation and stability are contractual, not best-effort.
func TestSortParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		memTuples int
	}{
		{"inmemory", 20000, 0},        // single buffer, chunk-parallel sort
		{"spill", 30000, 1000},        // ~30 runs, worker-pool generation
		{"spill-tiny-runs", 5000, 64}, // many small runs
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer itertest.Goroutines(t)()
			in := randomRel(tc.n, 50, 7)

			seq := NewSort(in.Iter(), []int{0})
			seq.MemTuples = tc.memTuples
			want, err := rel.Drain(seq)
			if err != nil {
				t.Fatal(err)
			}

			for _, par := range []int{2, 4, 7} {
				p := NewSort(in.Iter(), []int{0})
				p.MemTuples = tc.memTuples
				p.Parallelism = par
				var st ParallelStats
				p.OnStats = func(s ParallelStats) { st = s }
				got, err := rel.Drain(p)
				if err != nil {
					t.Fatal(err)
				}
				if !rel.EqualAsLists(want, got) {
					t.Fatalf("par=%d: parallel sort differs from sequential", par)
				}
				if st.Partitions == 0 || st.Rows != int64(tc.n) {
					t.Errorf("par=%d: stats = %+v", par, st)
				}
				if st.Skew() < 1 {
					t.Errorf("par=%d: skew %g < 1", par, st.Skew())
				}
			}
		})
	}
}

// TestSortParallelDesc: descending multi-key parallel sort matches
// sequential.
func TestSortParallelDesc(t *testing.T) {
	in := randomRel(8000, 20, 11)
	seq := NewSortDesc(in.Iter(), []int{0, 2}, []bool{true, false})
	want, err := rel.Drain(seq)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSortDesc(in.Iter(), []int{0, 2}, []bool{true, false})
	p.Parallelism = 4
	p.MemTuples = 500
	got, err := rel.Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(want, got) {
		t.Fatal("parallel desc sort differs from sequential")
	}
}

// errAfterIter yields n tuples then fails, to exercise worker-pool
// error paths.
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

// TestSortParallelInputError: an input error mid-spill must surface,
// leak no goroutines, and leave no run files behind.
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

// TestSortParallelCloseEarly: closing a spilled parallel sort before
// exhausting it must release every run file and worker.
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

// TestMergeSortedChunksStability: equal keys across chunk boundaries
// must come out in chunk order (= original input order).
func TestMergeSortedChunksStability(t *testing.T) {
	mk := func(k, seq int64) types.Tuple { return types.Tuple{types.Int(k), types.Int(seq)} }
	chunks := [][]types.Tuple{
		{mk(1, 0), mk(2, 1), mk(2, 2)},
		{mk(1, 3), mk(2, 4)},
		{mk(0, 5), mk(2, 6)},
	}
	out := mergeSortedChunks(chunks, []int{0}, nil)
	wantSeq := []int64{5, 0, 3, 1, 2, 4, 6}
	if len(out) != len(wantSeq) {
		t.Fatalf("len = %d", len(out))
	}
	for i, w := range wantSeq {
		if out[i][1].AsInt() != w {
			t.Fatalf("pos %d: seq %d, want %d (order %v)", i, out[i][1].AsInt(), w, out)
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

// TestPTAggrMatchesSequential: the partitioned temporal aggregation
// must be list-equal to the streaming TAggr for every aggregate kind,
// also on one giant group (no cut possible) and on an empty input.
func TestPTAggrMatchesSequential(t *testing.T) {
	defer itertest.Goroutines(t)()
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	for _, tc := range []struct {
		name  string
		in    *rel.Relation
		parts int // partitions expected above par 1
	}{
		{"groups", temporalRel(6000, 37, 5), 2},
		{"one-group", temporalRel(3000, 1, 6), 1},
		{"empty", temporalRel(0, 1, 7), 0},
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
				pa := NewPTAggr(tc.in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out, par)
				var st ParallelStats
				pa.OnStats = func(s ParallelStats) { st = s }
				got, err := rel.Drain(pa)
				if err != nil {
					t.Fatal(err)
				}
				if !rel.EqualAsLists(want, got) {
					t.Fatalf("%s: agg %s par %d: partitioned TAggr differs from sequential", tc.name, agg.Kind, par)
				}
				if par > 1 && (st.Partitions < tc.parts || tc.parts < 2 && st.Partitions != tc.parts) {
					t.Errorf("%s: agg %s par %d: want %d partitions, got %+v", tc.name, agg.Kind, par, tc.parts, st)
				}
			}
		}
	}
}

// TestPTAggrRejectsUnsortedInput: same contract violation, same error
// as the sequential operator.
func TestPTAggrRejectsUnsortedInput(t *testing.T) {
	defer itertest.Goroutines(t)()
	in := temporalRel(2000, 11, 9)
	// Swap two rows to break (G, T1) order.
	in.Tuples[100], in.Tuples[1500] = in.Tuples[1500], in.Tuples[100]
	out := types.NewSchema(types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "N", Kind: types.KindInt})
	pa := NewPTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{{Kind: AggCount}}, out, 4)
	// As in the sequential operator, the violation surfaces mid-stream.
	_, err := rel.Drain(pa)
	if err == nil {
		t.Fatal("expected unsorted-input error")
	} else if !strings.Contains(err.Error(), "not sorted on grouping attributes") {
		t.Fatalf("wrong error: %v", err)
	}
}

// joinRels builds two relations sorted on their key columns for join
// tests.
func joinRels(n, keys int, seed int64) (*rel.Relation, *rel.Relation) {
	rng := rand.New(rand.NewSource(seed))
	left := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "LV", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	right := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "RV", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		s := rng.Int63n(200)
		left.Append(types.Tuple{
			types.Int(rng.Int63n(int64(keys))), types.Int(int64(i)),
			types.Int(s), types.Int(s + 1 + rng.Int63n(30)),
		})
		s = rng.Int63n(200)
		right.Append(types.Tuple{
			types.Int(rng.Int63n(int64(keys))), types.Str(fmt.Sprintf("r%d", i)),
			types.Int(s), types.Int(s + 1 + rng.Int63n(30)),
		})
	}
	left.SortBy("K", "LV") // deterministic secondary order
	right.SortBy("K", "RV")
	return left, right
}

// TestPJoinMatchesSequential: partitioned equi and temporal merge
// joins must be list-equal to their sequential counterparts — also on
// one giant key group (no cut possible), an empty left, an empty
// right, and a left whose first chunks' key intervals hold no right
// rows.
func TestPJoinMatchesSequential(t *testing.T) {
	defer itertest.Goroutines(t)()
	left, right := joinRels(1600, 60, 21)
	oneKey, _ := joinRels(3000, 1, 22)
	_, oneKeyRight := joinRels(3, 1, 23)
	wide, _ := joinRels(5000, 100, 24)
	highRight := right.Clone()
	highRight.Tuples = nil
	for _, r := range right.Tuples {
		if r[0].AsInt() >= 45 {
			highRight.Append(r)
		}
	}
	for _, tc := range []struct {
		name        string
		left, right *rel.Relation
		parts       int // partitions expected above par 1
	}{
		{"keys", left, right, 2},
		{"one-key", oneKey, oneKeyRight, 1},
		{"empty-left", rel.New(left.Schema), right, 0},
		{"empty-right", left, rel.New(right.Schema), 2},
		{"no-right-rows-in-chunk", wide, highRight, 2},
	} {
		seqMJ, err := rel.Drain(NewMergeJoin(tc.left.Iter(), tc.right.Iter(), []int{0}, []int{0}))
		if err != nil {
			t.Fatal(err)
		}
		seqTJ, err := rel.Drain(NewTJoin(tc.left.Iter(), tc.right.Iter(), []int{0}, []int{0}, 2, 3, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4, 8} {
			gotMJ, err := rel.Drain(NewPMergeJoin(tc.left.Iter(), tc.right.Iter(), []int{0}, []int{0}, par))
			if err != nil {
				t.Fatal(err)
			}
			if !rel.EqualAsLists(seqMJ, gotMJ) {
				t.Fatalf("%s: par %d: partitioned merge join differs from sequential", tc.name, par)
			}
			ptj := NewPTJoin(tc.left.Iter(), tc.right.Iter(), []int{0}, []int{0}, 2, 3, 2, 3, par)
			var st ParallelStats
			ptj.OnStats = func(s ParallelStats) { st = s }
			gotTJ, err := rel.Drain(ptj)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.EqualAsLists(seqTJ, gotTJ) {
				t.Fatalf("%s: par %d: partitioned temporal join differs from sequential", tc.name, par)
			}
			if gotTJ.Schema.Len() != seqTJ.Schema.Len() {
				t.Fatalf("%s: par %d: schema mismatch", tc.name, par)
			}
			if par > 1 && (st.Partitions < tc.parts || tc.parts < 2 && st.Partitions != tc.parts) {
				t.Errorf("%s: par %d: want %d partitions, got %+v", tc.name, par, tc.parts, st)
			}
		}
	}
}

// TestPJoinRejectsUnsortedInputs: both sides validated, sequential
// error text preserved. The right side is drained in Open; a left-side
// violation surfaces mid-stream, as in the sequential join.
func TestPJoinRejectsUnsortedInputs(t *testing.T) {
	defer itertest.Goroutines(t)()
	left, right := joinRels(2000, 7, 31)
	badLeft := left.Clone()
	badLeft.Tuples[10], badLeft.Tuples[1700] = badLeft.Tuples[1700], badLeft.Tuples[10]
	if _, err := rel.Drain(NewPMergeJoin(badLeft.Iter(), right.Iter(), []int{0}, []int{0}, 4)); err == nil ||
		!strings.Contains(err.Error(), "left input not sorted") {
		t.Fatalf("left: err = %v", err)
	}
	badRight := right.Clone()
	badRight.Tuples[5], badRight.Tuples[1900] = badRight.Tuples[1900], badRight.Tuples[5]
	if _, err := rel.Drain(NewPMergeJoin(left.Iter(), badRight.Iter(), []int{0}, []int{0}, 4)); err == nil ||
		!strings.Contains(err.Error(), "right input not sorted") {
		t.Fatalf("right: err = %v", err)
	}
}

// TestSplitAtKeyBoundaries: the partitioned operator's chunks must be
// contiguous, cover the input in order, and never split a key group.
func TestSplitAtKeyBoundaries(t *testing.T) {
	in := randomRel(5000, 19, 41)
	in.SortBy("K")
	for i, r := range in.Tuples {
		in.Tuples[i] = types.Tuple{r[0], types.Int(int64(i)), r[2]} // Seq = position
	}
	p := NewPTAggr(in.Iter(), []int{0}, 1, 1, nil, in.Schema, 4)
	var mu sync.Mutex
	starts := map[int]int{} // first position -> chunk length
	p.kernel = func(chunk, _ rel.Iterator) rel.Iterator {
		rows, err := rel.Drain(chunk)
		if err != nil {
			t.Error(err)
			return rel.New(in.Schema).Iter()
		}
		mu.Lock()
		defer mu.Unlock()
		starts[int(rows.Tuples[0][1].AsInt())] = rows.Cardinality()
		return rows.Iter()
	}
	got, err := rel.Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(got, in) {
		t.Fatal("chunk outputs are not the input in order")
	}
	if len(starts) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(starts))
	}
	for pos := 0; pos < len(in.Tuples); {
		n, ok := starts[pos]
		if !ok {
			t.Fatalf("no chunk starts at %d", pos)
		}
		pos += n
		if pos < len(in.Tuples) && types.CompareTuples(in.Tuples[pos-1], in.Tuples[pos], []int{0}, nil) == 0 {
			t.Fatalf("key group split at %d", pos)
		}
	}
}
