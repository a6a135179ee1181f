package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"tango/internal/rel"
	"tango/internal/sqlparser"
)

// pruningCases are statements whose scans decode only what they use.
// widths lists the column count of every table read in the plan, depth
// first (nil: the statement fails to plan). testdata/scan_pruning.json
// holds each statement's result digest, or its error, as the engine
// returned them before scans were pruned, so neither may have changed.
var pruningCases = []struct {
	name, sql string
	widths    []int
}{
	{"count", "SELECT COUNT(*) FROM POSITION", []int{0}},
	{"filter", "SELECT PosID, EmpName FROM POSITION WHERE PayRate > 30", []int{3}},
	{"join", "SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID",
		[]int{2, 3}},
	// An unqualified name resolves in both sources: each keeps it.
	{"join-ambiguous", "SELECT EmpName FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID",
		[]int{2, 2}},
	{"group-having", "SELECT PosID, COUNT(*) AS N, MAX(T2) AS Last FROM POSITION " +
		"GROUP BY PosID HAVING MIN(T1) > 1000 ORDER BY PosID", []int{3}},
	{"order-alias", "SELECT EmpName AS Who, T2 - T1 AS Dur FROM POSITION ORDER BY Dur DESC, Who",
		[]int{3}},
	{"derived-unused", "SELECT X.PosID, X.Dur FROM " +
		"(SELECT PosID, EmpName, Title, T2 - T1 AS Dur, PayRate FROM POSITION) X WHERE X.Dur > 200",
		[]int{3}},
	// The kept item keeps its positional name.
	{"derived-positional", "SELECT X.COL2 FROM (SELECT EmpName, T2 - T1 FROM POSITION) X", []int{2}},
	{"derived-none-used", "SELECT COUNT(*) FROM (SELECT PosID, EmpName FROM POSITION) X", []int{1}},
	{"derived-distinct", "SELECT X.PosID FROM (SELECT DISTINCT PosID, Dept FROM POSITION) X", []int{2}},
	{"derived-union", "SELECT COUNT(*) FROM (SELECT PosID, T1 AS P FROM POSITION " +
		"UNION SELECT PosID, T2 AS P FROM POSITION) X", []int{2, 2}},
	// Without its aggregates the block would return every row.
	{"derived-grand-aggregate", "SELECT X.K FROM (SELECT 7 AS K, COUNT(*) AS N, MAX(EmpName) AS M FROM POSITION) X",
		[]int{1}},
	// The temporal-join SQL the translator emits: 14 items, 3 used.
	{"derived-temporal-join", "SELECT P_.PosID, P_.T1, P_.T2 FROM (SELECT L.PosID AS PosID, " +
		"L.EmpID AS EmpID, L.EmpName AS EmpName, L.Dept AS Dept, L.PayRate AS PayRate, L.Title AS Title, " +
		"GREATEST(L.T1, R.T1) AS T1, LEAST(L.T2, R.T2) AS T2, R.EmpID AS REmpID, R.EmpName AS REmpName, " +
		"R.Dept AS RDept, R.PayRate AS RPayRate, R.Title AS RTitle, R.PosID AS RPosID " +
		"FROM POSITION L, POSITION R WHERE L.PosID = R.PosID AND L.T1 < R.T2 AND L.T2 > R.T1 " +
		"AND L.PosID < 30) P_", []int{3, 3}},
	// The temporal-aggregation SQL: the UNION blocks stay whole, the
	// derived tables inside and beside them are pruned.
	{"derived-temporal-aggregation", "SELECT I_.G0 AS PosID, I_.TS AS T1, I_.TE AS T2, COUNT(*) AS CNT " +
		"FROM (SELECT S_.G0 AS G0, S_.P AS TS, MIN(E_.P) AS TE FROM " +
		"(SELECT DISTINCT B_.PosID AS G0, B_.T1 AS P FROM (SELECT B.PosID AS PosID, B.EmpName AS EmpName, " +
		"B.T1 AS T1, B.T2 AS T2 FROM POSITION B WHERE B.PosID < 20) B_ UNION SELECT DISTINCT B_.PosID AS G0, " +
		"B_.T2 AS P FROM (SELECT B.PosID AS PosID, B.EmpName AS EmpName, B.T1 AS T1, B.T2 AS T2 " +
		"FROM POSITION B WHERE B.PosID < 20) B_) S_, " +
		"(SELECT DISTINCT B_.PosID AS G0, B_.T1 AS P FROM (SELECT B.PosID AS PosID, B.EmpName AS EmpName, " +
		"B.T1 AS T1, B.T2 AS T2 FROM POSITION B WHERE B.PosID < 20) B_ UNION SELECT DISTINCT B_.PosID AS G0, " +
		"B_.T2 AS P FROM (SELECT B.PosID AS PosID, B.EmpName AS EmpName, B.T1 AS T1, B.T2 AS T2 " +
		"FROM POSITION B WHERE B.PosID < 20) B_) E_ " +
		"WHERE S_.G0 = E_.G0 AND E_.P > S_.P GROUP BY S_.G0, S_.P) I_, " +
		"(SELECT B.PosID AS PosID, B.EmpName AS EmpName, B.T1 AS T1, B.T2 AS T2 FROM POSITION B " +
		"WHERE B.PosID < 20) R_ WHERE R_.PosID = I_.G0 AND R_.T1 <= I_.TS AND R_.T2 >= I_.TE " +
		"GROUP BY I_.G0, I_.TS, I_.TE ORDER BY PosID, T1", []int{2, 2, 2, 2, 3}},
	{"star", "SELECT * FROM POSITION WHERE PosID < 5", []int{8}},
	{"table-star", "SELECT E.*, P.PosID FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID",
		[]int{2, 4}},
	// Zero-width rows through two nested-loop joins.
	{"cross-count", "SELECT COUNT(*) FROM DEPT A, DEPT B, DEPT C", []int{0, 0, 0}},
	{"index-range", "SELECT EmpName FROM POSITION WHERE EmpID < 100", []int{2}},
	{"index-nested-loop", "SELECT /*+ USE_NL */ P.PosID, E.Addr FROM POSITION P, EMPLOYEE E " +
		"WHERE P.EmpID = E.EmpID", []int{2, 2}},
	{"index-nested-loop-count", "SELECT /*+ USE_NL */ COUNT(*) FROM POSITION P, EMPLOYEE E " +
		"WHERE P.EmpID = E.EmpID", []int{1, 1}},
	// A dropped item's aggregate is still computable over the whole block.
	{"derived-dropped-aggregate", "SELECT X.PosID FROM " +
		"(SELECT PosID, MAX(EmpName) AS M FROM POSITION GROUP BY PosID) X", []int{1}},
	// A statement that fails unpruned fails pruned, with the same error:
	// an unknown column, in the select list or in a dropped item at any
	// depth, and a dropped item missing from GROUP BY.
	{"unknown-column", "SELECT PosID, NoSuchCol FROM POSITION", nil},
	{"derived-dropped-unknown-column", "SELECT X.PosID FROM (SELECT PosID, NoSuchCol FROM POSITION) X", nil},
	{"derived-nested-dropped-unknown-column", "SELECT Y.PosID FROM (SELECT X.PosID, X.Z FROM " +
		"(SELECT PosID, NoSuchCol + 1 AS Z FROM POSITION) X) Y", nil},
	{"derived-dropped-ungrouped-column", "SELECT X.PosID FROM " +
		"(SELECT PosID, EmpName FROM POSITION GROUP BY PosID) X", nil},
}

// pruningDB is positionDB with an EMPLOYEE table, a four-row DEPT
// table and indexes on both EmpID columns.
func pruningDB(t *testing.T) *DB {
	t.Helper()
	db := positionDB(t, 600)
	addEmployee(t, db, 200)
	for _, sql := range []string{
		"CREATE TABLE DEPT (Name VARCHAR(20), Floor INTEGER)",
		"INSERT INTO DEPT VALUES ('Sales', 1), ('Ops', 2), ('R&D', 3), ('HR', 1)",
		"CREATE INDEX pos_emp ON POSITION (EmpID)",
		"CREATE INDEX emp_emp ON EMPLOYEE (EmpID)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return db
}

// TestScanColumnPruning: every table read decodes exactly the columns
// its statement can reference, and each statement returns the result,
// or fails with the error, that the unpruned engine did.
func TestScanColumnPruning(t *testing.T) {
	db := pruningDB(t)
	data, err := os.ReadFile("testdata/scan_pruning.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range pruningCases {
		var got string
		r, err := db.QueryAll(tc.sql)
		if err != nil {
			got = "error: " + err.Error()
		} else {
			got = digest(r)
		}
		if got != want[tc.name] {
			t.Errorf("%s: got %s, want %s", tc.name, got, want[tc.name])
		}
		if err != nil || tc.widths == nil {
			continue
		}
		if widths := planWidths(t, db, tc.sql); !slices.Equal(widths, tc.widths) {
			t.Errorf("%s: table reads decode %v columns, want %v", tc.name, widths, tc.widths)
		}
	}
}

// digest hashes a result's column names and kinds and its rows in
// order.
func digest(r *rel.Relation) string {
	h := sha256.New()
	h.Write([]byte(r.Schema.String()))
	for _, tp := range r.Tuples {
		for _, v := range tp {
			h.Write([]byte{byte(v.Kind())})
			h.Write([]byte(v.String()))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// planWidths plans sql and lists the width of every table read in the
// plan, depth first, inputs in field order.
func planWidths(t *testing.T, db *DB, sql string) []int {
	t.Helper()
	readType := reflect.TypeOf(tableRead{})
	var widths []int
	walkPlan(t, db, sql, func(v reflect.Value) {
		if v.Type() == readType {
			widths = append(widths, v.FieldByName("schema").FieldByName("Cols").Len())
		}
	})
	return widths
}

// accessPaths plans sql and lists how each base table in the plan is
// read, "heap" or "index", depth first, inputs in field order.
func accessPaths(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	var paths []string
	walkPlan(t, db, sql, func(v reflect.Value) {
		switch v.Type() {
		case reflect.TypeOf(heapScan{}):
			paths = append(paths, "heap")
		case reflect.TypeOf(indexScan{}):
			paths = append(paths, "index")
		}
	})
	return paths
}

// walkPlan plans sql against the current version and calls visit on
// every struct in the plan, depth first, inputs in field order,
// following only fields that hold iterators or table reads.
func walkPlan(t *testing.T, db *DB, sql string, visit func(reflect.Value)) {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	defer snap.Release()
	it, err := db.planSelect(snap.v, sel)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var (
		readType   = reflect.TypeOf(tableRead{})
		iterType   = reflect.TypeOf((*rel.Iterator)(nil)).Elem()
		inputType  = reflect.TypeOf(rel.Input{})
		readerType = reflect.TypeOf(&rel.Reader{})
	)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface, reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			visit(v)
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if ft := f.Type(); ft == readType || ft == inputType || ft == readerType || ft.Implements(iterType) {
					walk(f)
				}
			}
		}
	}
	walk(reflect.ValueOf(it))
}
