//go:build !race

package xxl

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// TestTAggrAllocs guards TAGGR^M's reuse of its event arrays, aggregate
// states and output arena across groups and Opens: a COUNT over 12,000
// rows in about 800 Zipf-sized groups, drained into one dst, stays
// under 100 allocations a run. Copying every row and sorting a copy of
// each group took over 7,000.
func TestTAggrAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	zipf := rand.NewZipf(rng, 1.2, 1, 1000)
	in := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	))
	for i := 0; i < 12000; i++ {
		s := rng.Int63n(3000)
		in.Append(types.Tuple{types.Int(int64(zipf.Uint64())), types.Date(s), types.Date(s + 1 + rng.Int63n(400))})
	}
	in.SortBy("G", "T1")
	out := types.NewSchema(in.Schema.Cols[0], in.Schema.Cols[1], in.Schema.Cols[2], types.Column{Name: "N", Kind: types.KindInt})
	ta := NewTAggr(in.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out)
	dst := make([]types.Tuple, rel.DefaultBatchSize)
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		if err := ta.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := ta.NextBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if err := ta.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if rows == 0 {
		t.Fatal("no output")
	}
	if allocs > 100 {
		t.Errorf("COUNT TAGGR^M over %d rows: %.0f allocs a run, want <= 100", in.Cardinality(), allocs)
	}
}

// TestSortSpillAllocs guards SORT^M's one arena: a sort spilling 40 runs
// keeps every run in the arena the first one grew, reset between runs,
// so a spilled run costs its file and its merge reader, under 20
// allocations. An arena grown afresh for every run cost over 40.
func TestSortSpillAllocs(t *testing.T) {
	const runs, mem = 40, 1024
	rng := rand.New(rand.NewSource(38))
	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindInt},
	))
	for i := 0; i < runs*mem; i++ {
		in.Append(types.Tuple{types.Int(rng.Int63n(5000)), types.Int(int64(i))})
	}
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = mem
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if perRun := allocs / runs; perRun > 20 {
		t.Errorf("SORT^M spilling %d runs of %d rows: %.1f allocs a run, want <= 20", runs, mem, perRun)
	}
}

// TestSortMergeAllocs guards the k-way merge of spilled runs: the run
// that supplied the smallest row refills the top of the heap in place,
// so merging 40 runs of 1,024 rows allocates per decoded block and per
// run, not per row — under 0.05 allocations a merged row. Popping and
// pushing every row through container/heap boxed it twice.
func TestSortMergeAllocs(t *testing.T) {
	const runs, mem = 40, 1024
	rng := rand.New(rand.NewSource(39))
	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindInt},
	))
	for i := 0; i < runs*mem; i++ {
		in.Append(types.Tuple{types.Int(rng.Int63n(5000)), types.Int(int64(i))})
	}
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = mem
	dst := make([]types.Tuple, rel.DefaultBatchSize)
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		if err := s.Open(); err != nil {
			t.Fatal(err)
		}
		rows = 0
		for {
			n, err := s.NextBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if rows != in.Cardinality() {
		t.Fatalf("merged %d rows of %d", rows, in.Cardinality())
	}
	if perRow := allocs / float64(rows); perRow > 0.05 {
		t.Errorf("SORT^M merging %d runs of %d rows: %.0f allocs, %.3f a row, want <= 0.05", runs, mem, allocs, perRow)
	}
}

// TestDupElimAllocs: DUPELIM^M over 12,000 rows, about half of them
// duplicates, keeps the rows it has seen in a key table: under 50
// allocations a run, drained into one dst. A key string per row in a Go
// map took over 12,000.
func TestDupElimAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindDate},
	))
	for i := 0; i < 12000; i++ {
		k := rng.Int63n(8000)
		in.Append(types.Tuple{types.Int(k), types.Str(fmt.Sprintf("name %d", k%97)), types.Date(k % 5)})
	}
	d := NewDupElim(in.Iter())
	dst := make([]types.Tuple, rel.DefaultBatchSize)
	rows := 0
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		if err := d.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := d.NextBatch(dst)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			rows += n
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if rows == 0 || rows == in.Cardinality() {
		t.Fatalf("%d of %d rows kept", rows, in.Cardinality())
	}
	if allocs > 50 {
		t.Errorf("DUPELIM^M over %d rows: %.0f allocs a run, want <= 50", in.Cardinality(), allocs)
	}
}
