//go:build !race

package storage

import (
	"testing"

	"tango/internal/types"
)

// TestPageTuplesAllocs guards the one-pass page decode: a full page
// costs its row headers, its value slab and its string slab, however
// many rows and strings it holds, and a page read for integer columns
// only allocates no string slab at all.
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
		{"all columns", nil, 3},
		{"PosID, T1, T2", []int{0, 6, 7}, 2},
	} {
		rows, err := h.PageTuples(0, -1, tc.cols, nil, nil)
		if err != nil || len(rows) < 50 {
			t.Fatalf("%s: page 0: %d rows, err %v", tc.name, len(rows), err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := h.PageTuples(0, -1, tc.cols, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: PageTuples of a %d-row page: %.0f allocs, want <= %.0f", tc.name, len(rows), allocs, tc.max)
		}
		// A scan decodes each page into the arena it reset: once the
		// arena has grown to a page, a page costs nothing.
		var a types.Arena
		buf := make([]types.Tuple, 0, len(rows))
		allocs = testing.AllocsPerRun(50, func() {
			a.Reset()
			if _, err := h.PageTuples(0, -1, tc.cols, buf, &a); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: PageTuples into a reused arena: %.0f allocs, want 0", tc.name, allocs)
		}
	}
}

// TestInsertAllocs: a row that fits the tail page's column layouts is
// spliced into its block, not appended by decoding the page's rows
// (which allocates their value and string slabs) and encoding them
// again — so such an insert allocates nothing but, now and then (a
// column widening), one re-encode.
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
	if h.NumPages() != 1 || allocs > 0.2 {
		t.Errorf("%d inserts onto one page: %.2f allocs each, %d pages", i, allocs, h.NumPages())
	}
}

// TestScanReusesFrames: a scan of a heap larger than its pool reads
// every page into a frame the pool evicted, not a new one, so a scan
// that decodes no column allocates nothing at all.
func TestScanReusesFrames(t *testing.T) {
	h := positionHeap(t, 4000)
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	h.pool = NewBufferPool(h.pool.disk, 4)
	pages := int32(h.NumPages())
	if pages <= 8 {
		t.Fatalf("%d pages, want more than twice the pool's 4", pages)
	}
	var rows []types.Tuple
	allocs := testing.AllocsPerRun(20, func() {
		for p := int32(0); p < pages; p++ {
			var err error
			if rows, err = h.PageTuples(p, -1, []int{}, rows[:0], nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("scan of %d pages through a 4-page pool: %.1f allocs, want 0", pages, allocs)
	}
	if hits, misses := h.pool.Stats(); hits != 0 || misses == 0 {
		t.Errorf("pool hits %d, misses %d: the scan did not miss on every page", hits, misses)
	}
}
