//go:build !race

package storage

import "testing"

// TestPageTuplesAllocs guards the slab decode: a full page costs its
// row headers, its value slab and its string slab, however many rows
// and strings it holds.
func TestPageTuplesAllocs(t *testing.T) {
	h := positionHeap(t, 400)
	if h.NumPages() < 2 {
		t.Fatal("want a full first page")
	}
	rows, err := h.PageTuplesN(0, -1, nil)
	if err != nil || len(rows) < 50 {
		t.Fatalf("page 0: %d rows, err %v", len(rows), err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := h.PageTuplesN(0, -1, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("PageTuplesN of a %d-row page: %.0f allocs, want <= 4", len(rows), allocs)
	}
}
