//go:build !race

package engine

import (
	"runtime"
	"testing"
	"unsafe"

	"tango/internal/types"
)

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

// TestFilteredScanAllocs: a heap scan keeping about 2 % of a 12k-row
// POSITION decodes only those rows, so it allocates under a tenth of
// the bytes of the same scan unfiltered. Decoding every row and
// filtering after allocates about a third of them.
func TestFilteredScanAllocs(t *testing.T) {
	const n = 12000
	db := positionDB(t, n)
	bytesPerOp := func(sql string) float64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := db.QueryAll(sql); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const cols = "SELECT PosID, EmpName, T1 FROM POSITION"
	filtered, whole := bytesPerOp(cols+" WHERE T1 < 160"), bytesPerOp(cols)
	if filtered > whole/10 {
		t.Errorf("scan keeping 2 %% of %d rows: %.0f B/op, want under a tenth of the unfiltered scan's %.0f B/op",
			n, filtered, whole)
	}
}

// TestOrderByKeepsOneCopy: a scan under an ORDER BY decodes its pages
// into memory it reuses, and the sort copies each row once into its
// arena, which it frees at Close for the next statement: a 12k-row
// sort read through to the end allocates under one copy of the rows it
// sorts. Decoding every page into fresh memory, projecting each row
// into a new one and keeping a growing list of them took about three.
func TestOrderByKeepsOneCopy(t *testing.T) {
	const n = 12000
	db := positionDB(t, n)
	const sql = "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1"
	run := func() (rows, strs int) {
		it, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return rows, strs
			}
			rows++
			strs += len(r[1].AsString())
		}
	}
	rows, strs := run()
	if rows != n {
		t.Fatalf("%d rows, want %d", rows, n)
	}
	// One copy: each row's four values and its header, and its string.
	oneCopy := float64(n*(4+1)*int(unsafe.Sizeof(types.Value{})) + strs)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs; perQuery > oneCopy {
		t.Errorf("ORDER BY over %d rows: %.0f B per query, want under one copy of the rows, %.0f B", n, perQuery, oneCopy)
	}
}

// TestHashJoinAllocs: a hash join building on EMPLOYEE's 4,000 unique
// EmpIDs and probing with 12,000 POSITION rows allocates per table, not
// per key: under 1,000 times a query, output included. A slice of
// entries per distinct key in a Go map took over 4,000.
func TestHashJoinAllocs(t *testing.T) {
	db := positionDB(t, 12000)
	addEmployee(t, db, 4000)
	const sql = "SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID"
	allocs := testing.AllocsPerRun(3, func() {
		if r, err := db.QueryAll(sql); err != nil || len(r.Tuples) != 12000 {
			t.Fatalf("%d rows, err %v", len(r.Tuples), err)
		}
	})
	if allocs > 1000 {
		t.Errorf("hash join on 4,000 unique keys: %.0f allocs a query, want <= 1000", allocs)
	}
}

// TestGroupByAllocs: GROUP BY over 12,000 rows in 800 groups keeps its
// groups in a key table and their aggregate states in one slice: under
// 400 allocations a query, planning and output included (about 200 of
// them). A key string per row and a state per group and aggregate took
// about 17,900.
func TestGroupByAllocs(t *testing.T) {
	db := groupDB(t, 12000, 800)
	const sql = "SELECT G, S, COUNT(*), SUM(V), MAX(V) FROM G GROUP BY G, S"
	allocs := testing.AllocsPerRun(3, func() {
		if r, err := db.QueryAll(sql); err != nil || len(r.Tuples) != 800 {
			t.Fatalf("%d groups, err %v", len(r.Tuples), err)
		}
	})
	if allocs > 400 {
		t.Errorf("GROUP BY over 12,000 rows in 800 groups: %.0f allocs a query, want <= 400", allocs)
	}
}
