//go:build !race

package storage

import (
	"testing"

	"tango/internal/types"
)

// TestPageTuplesAllocs guards the one-pass page decode: a full page
// costs its page reference, its row headers, its value slab and its
// string slab, however many rows and strings it holds, and a page read
// for integer columns only allocates no string slab at all.
func TestPageTuplesAllocs(t *testing.T) {
	h := positionHeap(t, 400)
	if h.NumPages() < 2 {
		t.Fatal("want a full first page")
	}
	for _, tc := range []struct {
		name string
		cols []int
		max  float64
	}{
		{"all columns", nil, 4},
		{"PosID, T1, T2", []int{0, 6, 7}, 3},
	} {
		rows, err := h.PageTuples(0, -1, tc.cols, nil)
		if err != nil || len(rows) < 50 {
			t.Fatalf("%s: page 0: %d rows, err %v", tc.name, len(rows), err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := h.PageTuples(0, -1, tc.cols, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: PageTuples of a %d-row page: %.0f allocs, want <= %.0f", tc.name, len(rows), allocs, tc.max)
		}
	}
}

// TestInsertAllocs: a row that fits the tail page's column layouts is
// spliced into its block, not appended by decoding the page's rows
// (which allocates their value and string slabs) and encoding them
// again — so such an insert allocates its page reference and, now and
// then (a column widening), one re-encode.
func TestInsertAllocs(t *testing.T) {
	h := NewHeapFile(NewBufferPool(NewDisk(), 8))
	rows := make([]types.Tuple, 200)
	for i := range rows {
		rows[i] = tup(i, "name")
	}
	for _, r := range rows[:20] {
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	i := 20
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := h.Insert(rows[i%len(rows)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if h.NumPages() != 1 || allocs > 1.2 {
		t.Errorf("%d inserts onto one page: %.2f allocs each, %d pages", i, allocs, h.NumPages())
	}
}
