//go:build !race

package engine

import "testing"

// TestOrderByAllocs guards the row path end to end inside the engine —
// parse, plan, heap scan into page slabs, projection into chunks, the
// shared sort, drain: a 12k-row ORDER BY stays under two allocations a
// row (it took about eight when every row was decoded, cloned and
// keyed on its own).
func TestOrderByAllocs(t *testing.T) {
	const n = 12000
	db := positionDB(t, n)
	const sql = "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1"
	allocs := testing.AllocsPerRun(3, func() {
		r, err := db.QueryAll(sql)
		if err != nil || len(r.Tuples) != n {
			t.Fatalf("%d rows, err %v", len(r.Tuples), err)
		}
	})
	if perRow := allocs / n; perRow > 2 {
		t.Errorf("ORDER BY over %d rows: %.2f allocs/row, want <= 2", n, perRow)
	}
}
