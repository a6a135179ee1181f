package xxl

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/types"
)

// checkGoroutines fails the test if the goroutine count has not
// returned to (about) its starting level — parallel operators must not
// leak workers, even on error or early-Close paths. Call it as
// `defer checkGoroutines(t)()` before creating the operator.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			runtime.GC() // nudge finalizers; workers should already be joined
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d -> %d\n%s",
					before, runtime.NumGoroutine(), truncStack(string(buf[:n])))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func truncStack(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n...(truncated)"
	}
	return s
}

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
			defer checkGoroutines(t)()
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
	defer checkGoroutines(t)()
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
	defer checkGoroutines(t)()
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
// must be list-equal to the streaming TAggr for every aggregate kind.
func TestPTAggrMatchesSequential(t *testing.T) {
	defer checkGoroutines(t)()
	in := temporalRel(6000, 37, 5)
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	for _, agg := range []AggSpec{
		{Kind: AggCount}, {Kind: AggSum, Col: 1}, {Kind: AggAvg, Col: 1},
		{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
	} {
		seq := NewTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out)
		want, err := rel.Drain(seq)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 4, 8} {
			pa := NewPTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out, par)
			var st ParallelStats
			pa.OnStats = func(s ParallelStats) { st = s }
			got, err := rel.Drain(pa)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.EqualAsLists(want, got) {
				t.Fatalf("agg %s par %d: partitioned TAggr differs from sequential", agg.Kind, par)
			}
			if par > 1 && st.Partitions < 2 {
				t.Errorf("agg %s par %d: expected multiple partitions, got %+v", agg.Kind, par, st)
			}
		}
	}
}

// TestPTAggrRejectsUnsortedInput: same contract violation, same error
// as the sequential operator.
func TestPTAggrRejectsUnsortedInput(t *testing.T) {
	defer checkGoroutines(t)()
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
// joins must be list-equal to their sequential counterparts.
func TestPJoinMatchesSequential(t *testing.T) {
	defer checkGoroutines(t)()
	left, right := joinRels(1600, 60, 21)

	seqMJ, err := rel.Drain(NewMergeJoin(left.Iter(), right.Iter(), []int{0}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	seqTJ, err := rel.Drain(NewTJoin(left.Iter(), right.Iter(), []int{0}, []int{0}, 2, 3, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		pmj := NewPMergeJoin(left.Iter(), right.Iter(), []int{0}, []int{0}, par)
		gotMJ, err := rel.Drain(pmj)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.EqualAsLists(seqMJ, gotMJ) {
			t.Fatalf("par %d: partitioned merge join differs from sequential", par)
		}
		ptj := NewPTJoin(left.Iter(), right.Iter(), []int{0}, []int{0}, 2, 3, 2, 3, par)
		var st ParallelStats
		ptj.OnStats = func(s ParallelStats) { st = s }
		gotTJ, err := rel.Drain(ptj)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.EqualAsLists(seqTJ, gotTJ) {
			t.Fatalf("par %d: partitioned temporal join differs from sequential", par)
		}
		if gotTJ.Schema.Len() != seqTJ.Schema.Len() {
			t.Fatalf("par %d: schema mismatch", par)
		}
		if par > 1 && st.Partitions < 2 {
			t.Errorf("par %d: expected multiple partitions, got %+v", par, st)
		}
	}
}

// TestPJoinRejectsUnsortedInputs: both sides validated, sequential
// error text preserved.
func TestPJoinRejectsUnsortedInputs(t *testing.T) {
	defer checkGoroutines(t)()
	left, right := joinRels(2000, 7, 31)
	badLeft := left.Clone()
	badLeft.Tuples[10], badLeft.Tuples[1700] = badLeft.Tuples[1700], badLeft.Tuples[10]
	j := NewPMergeJoin(badLeft.Iter(), right.Iter(), []int{0}, []int{0}, 4)
	if err := j.Open(); err == nil || !strings.Contains(err.Error(), "left input not sorted") {
		t.Fatalf("left: err = %v", err)
	}
	badRight := right.Clone()
	badRight.Tuples[5], badRight.Tuples[1900] = badRight.Tuples[1900], badRight.Tuples[5]
	j2 := NewPMergeJoin(left.Iter(), badRight.Iter(), []int{0}, []int{0}, 4)
	if err := j2.Open(); err == nil || !strings.Contains(err.Error(), "right input not sorted") {
		t.Fatalf("right: err = %v", err)
	}
}

// TestSplitAtKeyBoundaries: partitions must be contiguous, cover the
// input, and never split a key group.
func TestSplitAtKeyBoundaries(t *testing.T) {
	in := randomRel(5000, 19, 41)
	in.SortBy("K")
	parts := splitAtKeyBoundaries(in.Tuples, []int{0}, 4)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	total := 0
	for i, p := range parts {
		total += len(p)
		if len(p) == 0 {
			t.Fatalf("partition %d empty", i)
		}
		if i > 0 {
			prevLast := parts[i-1][len(parts[i-1])-1]
			if types.CompareTuples(prevLast, p[0], []int{0}, nil) == 0 {
				t.Fatalf("key group split across partitions %d/%d", i-1, i)
			}
		}
	}
	if total != len(in.Tuples) {
		t.Fatalf("partitions cover %d of %d rows", total, len(in.Tuples))
	}
}

// TestPrefetchMatchesDirect: prefetched streams are tuple-for-tuple
// identical to direct iteration, for batch and row-at-a-time consumers.
func TestPrefetchMatchesDirect(t *testing.T) {
	defer checkGoroutines(t)()
	in := randomRel(5000, 40, 51)
	want := in.Clone()

	p := NewPrefetch(in.Iter())
	var st ParallelStats
	p.OnStats = func(s ParallelStats) { st = s }
	got, err := rel.Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(want, got) {
		t.Fatal("prefetched stream differs from direct")
	}
	if st.Rows != int64(want.Cardinality()) || st.Partitions == 0 {
		t.Errorf("prefetch stats = %+v", st)
	}

	// Row-at-a-time consumption too.
	p2 := rel.NewReader(NewPrefetch(in.Iter()))
	if err := p2.Open(); err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, ok, err := p2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if n != want.Cardinality() {
		t.Fatalf("tuple path rows = %d, want %d", n, want.Cardinality())
	}
}

// TestPrefetchCloseEarly: abandoning a prefetched stream mid-flight
// must stop and join the worker without leaks and still close the
// wrapped iterator.
func TestPrefetchCloseEarly(t *testing.T) {
	defer checkGoroutines(t)()
	in := randomRel(10000, 40, 53)
	p := NewPrefetch(in.Iter())
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if n, err := p.NextBatch(make([]types.Tuple, 32)); n == 0 || err != nil {
			t.Fatalf("NextBatch: n=%d err=%v", n, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchErrorPropagates: a producer error mid-stream surfaces to
// the consumer and the worker exits.
func TestPrefetchErrorPropagates(t *testing.T) {
	defer checkGoroutines(t)()
	s2 := types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Seq", Kind: types.KindInt},
	)
	p := NewPrefetch(&errAfterIter{schema: s2, n: 100})
	if err := p.Open(); err != nil {
		t.Fatal(err)
	}
	dst := make([]types.Tuple, 16)
	var sawErr error
	for {
		n, err := p.NextBatch(dst)
		if err != nil {
			sawErr = err
			break
		}
		if n == 0 {
			break
		}
	}
	if sawErr == nil || !strings.Contains(sawErr.Error(), "synthetic input failure") {
		t.Fatalf("error not propagated: %v", sawErr)
	}
	// The error is sticky.
	if n, err := p.NextBatch(dst); n != 0 || err == nil {
		t.Fatal("error must be sticky")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchReopen: a closed prefetcher can be opened again (plans
// are occasionally re-run).
func TestPrefetchReopen(t *testing.T) {
	defer checkGoroutines(t)()
	in := randomRel(2000, 10, 57)
	p := NewPrefetch(in.Iter())
	for round := 0; round < 2; round++ {
		got, err := rel.Drain(p)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Cardinality() != in.Cardinality() {
			t.Fatalf("round %d: rows = %d", round, got.Cardinality())
		}
	}
}

// TestStackedPipelineStress layers every parallel operator into one
// pipeline — Prefetch{ Sort^M(parallel, spilling){ Prefetch{ scan }}}
// — and hammers it under the race detector: full drains, partial
// consumptions with early Close, and random dst sizes. Whatever the
// consumption pattern, no workers may leak and full drains must equal
// the sequential order.
func TestStackedPipelineStress(t *testing.T) {
	defer checkGoroutines(t)()
	in := randomRel(6000, 40, 99)
	want, err := rel.Drain(NewSort(in.Iter(), []int{0}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		srt := NewSort(NewPrefetch(in.Iter()), []int{0})
		srt.MemTuples = 512 // force spilling runs
		srt.Parallelism = 2 + rng.Intn(6)
		outer := NewPrefetch(srt)
		if err := outer.Open(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		buf := make([]types.Tuple, 1+rng.Intn(300))
		got := rel.New(want.Schema)
		// A full drain, or a few batches and then Close.
		full, limit := rng.Intn(3) == 0, rng.Intn(10)
		for batches := 0; full || batches < limit; batches++ {
			n, err := outer.NextBatch(buf)
			if err != nil {
				t.Fatalf("round %d: batch %d: %v", round, batches, err)
			}
			if n == 0 {
				if !rel.EqualAsLists(got, want) {
					t.Fatalf("round %d: parallel pipeline diverged from sequential sort", round)
				}
				break
			}
			got.Tuples = append(got.Tuples, buf[:n]...)
		}
		if err := outer.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
}
