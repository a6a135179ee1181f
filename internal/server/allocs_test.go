//go:build !race

package server

import (
	"runtime"
	"testing"
)

// TestCursorFetchAllocs guards the row path of a T^M on the DBMS side:
// a 12k-row filter + projection drained through a server cursor's
// fetches. The scan decodes its pages, the projection writes its rows
// and the cursor keeps its batch in memory each reuses batch after
// batch and frees for the next statement, so what a query allocates is
// its plan, not its rows. When every producer allocated every row it
// passed on, the query took 1.7 MB; the bound is a quarter of that.
func TestCursorFetchAllocs(t *testing.T) {
	s := positionServer(t, 12000)
	rows := drainQuery(t, s, fetchFilterSQL) // warm the pools
	if rows < 10000 {
		t.Fatalf("%d rows pass the filter, want most of 12000", rows)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		drainQuery(t, s, fetchFilterSQL)
	}
	runtime.ReadMemStats(&after)
	perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B per query of %d rows", perQuery, rows)
	if perQuery > parentFilterBytes/4 {
		t.Errorf("%.0f B per query, want at most a quarter of %.0f", perQuery, float64(parentFilterBytes))
	}
}

// parentFilterBytes is what the same query allocated when every
// producer allocated every row it passed on.
const parentFilterBytes = 1_700_000
