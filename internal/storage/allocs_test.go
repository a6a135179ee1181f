//go:build !race

package storage

import "testing"

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
