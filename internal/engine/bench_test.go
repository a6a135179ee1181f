package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// positionDB holds n POSITION-shaped rows with skewed PosIDs, as the
// evaluation data has, in insertion (not key) order.
func positionDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := Open(Config{})
	schema := types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "EmpID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
		types.Column{Name: "Dept", Kind: types.KindString},
		types.Column{Name: "PayRate", Kind: types.KindFloat},
		types.Column{Name: "Title", Kind: types.KindString},
		types.Column{Name: "T1", Kind: types.KindDate},
		types.Column{Name: "T2", Kind: types.KindDate},
	)
	if _, err := db.CreateTable("POSITION", schema); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	rows := make([]types.Tuple, n)
	for i := range rows {
		t1 := rng.Int63n(8000)
		rows[i] = types.Tuple{
			types.Int(rng.Int63n(int64(n/6) + 1)), types.Int(rng.Int63n(4000)),
			types.Str(fmt.Sprintf("Employee %d", rng.Intn(4000))), types.Str("Dept"),
			types.Float(10 + float64(rng.Intn(400))/10), types.Str("Title"),
			types.Date(t1), types.Date(t1 + 1 + rng.Int63n(400)),
		}
	}
	if err := db.BulkLoad("POSITION", rows); err != nil {
		tb.Fatal(err)
	}
	return db
}

// addEmployee adds an EMPLOYEE table of n rows keyed by the EmpIDs
// positionDB draws from.
func addEmployee(tb testing.TB, db *DB, n int) {
	tb.Helper()
	schema := types.NewSchema(
		types.Column{Name: "EmpID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
		types.Column{Name: "Addr", Kind: types.KindString},
		types.Column{Name: "Salary", Kind: types.KindFloat},
	)
	if _, err := db.CreateTable("EMPLOYEE", schema); err != nil {
		tb.Fatal(err)
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i * 4000 / n)), types.Str(fmt.Sprintf("Employee %d", i)),
			types.Str(fmt.Sprintf("%d Elm St", i)), types.Float(float64(20 + i%50)),
		}
	}
	if err := db.BulkLoad("EMPLOYEE", rows); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEngineScan is the engine's share of plain statements over
// a 12k-row POSITION: COUNT(*), which decodes no column; a filter
// reading three of its eight columns; and a hash join with a 4k-row
// EMPLOYEE reading two columns of one side and three of the other.
//
// The range-sel sweep reads a range of the indexed PosID (uniform over
// 0..2000, in no key order) at selectivities 0.1 %, 1 %, 5 % and 46 %,
// each by three paths on the same data: "index", the index range scan
// planned before ANALYZE; "heap", the heap scan and filter (the range
// written so that no index answers it); and "chosen", the path the
// planner takes from ANALYZE's statistics. Where the chosen path is
// slow, the cost formula's crossover is in the wrong place.
//
// The heap-filter sweep reads the same two columns through a heap scan
// whose pages test the conjunct on their column words, at selectivities
// 2 %, 25 % and 90 %, on the float PayRate (each row compared as a
// value, as plain_sql's filter is) and on the date T1 (compared as
// words, as the forced T^D plan's date bounds are).
func BenchmarkEngineScan(b *testing.B) {
	const n = 12000
	db := positionDB(b, n)
	addEmployee(b, db, 4000)
	if _, err := db.Exec("CREATE INDEX pos_posid ON POSITION (PosID)"); err != nil {
		b.Fatal(err)
	}
	unanalyzed := db.Snapshot()
	defer unanalyzed.Release()
	if _, err := db.Exec("ANALYZE POSITION HISTOGRAM 10"); err != nil {
		b.Fatal(err)
	}
	query := func(sql string) func() (*rel.Relation, error) {
		return func() (*rel.Relation, error) { return db.QueryAll(sql) }
	}
	type benchCase struct {
		name string
		run  func() (*rel.Relation, error)
	}
	cases := []benchCase{
		{"count", query("SELECT COUNT(*) FROM POSITION")},
		{"filter", query("SELECT PosID, EmpName FROM POSITION WHERE PayRate > 30")},
		{"join", query("SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID")},
	}
	for _, r := range []struct{ sel, pred string }{
		{"0.001", "PosID < 2"}, {"0.01", "PosID < 20"}, {"0.05", "PosID < 100"}, {"0.46", "PosID > 1080"},
	} {
		sql := "SELECT PosID, EmpName FROM POSITION WHERE " + r.pred
		cases = append(cases,
			benchCase{"range-sel=" + r.sel + "/index", func() (*rel.Relation, error) {
				it, err := unanalyzed.Query(sql)
				if err != nil {
					return nil, err
				}
				return rel.Drain(it)
			}},
			benchCase{"range-sel=" + r.sel + "/heap", query(strings.Replace(sql, "PosID ", "PosID + 0 ", 1))},
			benchCase{"range-sel=" + r.sel + "/chosen", query(sql)})
	}
	for _, h := range []struct{ sel, float, date string }{
		{"0.02", "PayRate > 49.1", "T1 < 160"}, {"0.25", "PayRate > 39.9", "T1 < 2000"},
		{"0.9", "PayRate > 13.9", "T1 < 7200"},
	} {
		cases = append(cases,
			benchCase{"heap-filter-sel=" + h.sel + "/float", query("SELECT PosID, EmpName FROM POSITION WHERE " + h.float)},
			benchCase{"heap-filter-sel=" + h.sel + "/date", query("SELECT PosID, EmpName FROM POSITION WHERE " + h.date)})
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkEngineSort is the engine's share of a sorted fetch: scan,
// project, ORDER BY, with integer/date keys, with a string key in
// front, and with coalesce's key (a string between two integers).
func BenchmarkEngineSort(b *testing.B) {
	const n = 12000
	db := positionDB(b, n)
	for _, bc := range []struct{ name, sql string }{
		{"intkeys", "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1"},
		{"mixedkeys", "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY EmpName, T1"},
		{"coalesce", "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, EmpName, T1"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := db.QueryAll(bc.sql)
				if err != nil || len(r.Tuples) != n {
					b.Fatalf("%d rows, err %v", len(r.Tuples), err)
				}
			}
			b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkTempTransfer is the T^D layer on a durable store: CREATE
// TABLE IF NOT EXISTS of a transfer temp table, a bulk load of the
// forced_td aggregate's shape (3,600 rows of PosID, T1, T2, COUNT) and
// DROP, reporting the WAL fsyncs each transfer waits on.
func BenchmarkTempTransfer(b *testing.B) {
	db, _, err := OpenAt(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	rows := transferRows(3600)
	name := TempPrefix + "BENCH"
	_, _, before := db.FileDisk().GroupCommitStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("CREATE TABLE IF NOT EXISTS " + name + transferDDL); err != nil {
			b.Fatal(err)
		}
		if err := db.BulkLoad(name, rows); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec("DROP TABLE IF EXISTS " + name); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, _, after := db.FileDisk().GroupCommitStats()
	b.ReportMetric(float64(after-before)/float64(b.N), "fsyncs/op")
}

// groupDB holds G (G, S, V): n rows in the given number of groups, G
// uniform over them and S naming G.
func groupDB(tb testing.TB, n, groups int) *DB {
	tb.Helper()
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE G (G INTEGER, S VARCHAR, V INTEGER)"); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(groups)))
	rows := make([]types.Tuple, n)
	for i := range rows {
		g := rng.Intn(groups)
		rows[i] = types.Tuple{types.Int(int64(g)), types.Str(fmt.Sprintf("group %d", g)), types.Int(rng.Int63n(1000))}
	}
	if err := db.BulkLoad("G", rows); err != nil {
		tb.Fatal(err)
	}
	return db
}

// runQueries runs each query as a sub-benchmark, reporting allocations
// and input rows/s.
func runQueries(b *testing.B, db *DB, rows int, cases []struct{ name, sql string }) {
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryAll(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkEngineHashJoin is the engine's hash join on two build
// shapes: "unique", 12k POSITION rows probing EMPLOYEE's 4,000 unique
// EmpIDs (plain_sql's join_dbms), and "zipf-self", a self-join of the
// early rows of a 12k-row table whose PosIDs are Zipf-skewed as the
// evaluation data's are (mw_heavy's tjoin), so long runs of build rows
// share a key.
func BenchmarkEngineHashJoin(b *testing.B) {
	const n = 12000
	db := positionDB(b, n)
	addEmployee(b, db, 4000)
	if _, err := db.Exec("CREATE TABLE ZPOS (PosID INTEGER, EmpName VARCHAR, T1 DATE)"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	zipf := rand.NewZipf(rng, 1.3, 4, 799)
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(zipf.Uint64()) + 1),
			types.Str(fmt.Sprintf("Employee %d", rng.Intn(4000))), types.Date(rng.Int63n(8000))}
	}
	if err := db.BulkLoad("ZPOS", rows); err != nil {
		b.Fatal(err)
	}
	runQueries(b, db, n, []struct{ name, sql string }{
		{"unique", "SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID"},
		{"zipf-self", "SELECT A.PosID, A.EmpName, B.EmpName FROM ZPOS A, ZPOS B WHERE A.PosID = B.PosID AND A.T1 < 600 AND B.T1 < 600"},
	})
}

// BenchmarkEngineGroupBy is hash aggregation over 12k rows in 800
// groups: on an integer key, on an integer and a string key, and with a
// COUNT(DISTINCT …) beside the grouping.
func BenchmarkEngineGroupBy(b *testing.B) {
	const n = 12000
	runQueries(b, groupDB(b, n, 800), n, []struct{ name, sql string }{
		{"int", "SELECT G, COUNT(*), SUM(V), MAX(V) FROM G GROUP BY G"},
		{"int-string", "SELECT G, S, COUNT(*), SUM(V), MAX(V) FROM G GROUP BY G, S"},
		{"distinct", "SELECT G, COUNT(DISTINCT V) FROM G GROUP BY G"},
	})
}
