package engine

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
	"tango/internal/xxl"
)

// testDB builds the paper's POSITION example (Figure 3a) plus an
// EMP table for join tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{})
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), T1 INTEGER, T2 INTEGER)")
	mustExec("INSERT INTO POSITION VALUES (1, 'Tom', 2, 20), (1, 'Jane', 5, 25), (2, 'Tom', 5, 10)")
	mustExec("CREATE TABLE EMP (EmpName VARCHAR(40), Addr VARCHAR(60), Salary FLOAT)")
	mustExec("INSERT INTO EMP VALUES ('Tom', '12 Elm St', 30.5), ('Jane', '9 Oak Av', 42.0), ('Bob', '1 Pine Rd', 25.0)")
	return db
}

func queryAll(t *testing.T, db *DB, sql string) *rel.Relation {
	t.Helper()
	r, err := db.QueryAll(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return r
}

func TestSelectWhereOrder(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT EmpName, T1 FROM POSITION WHERE PosID = 1 ORDER BY T1")
	if r.Cardinality() != 2 {
		t.Fatalf("rows = %d\n%v", r.Cardinality(), r)
	}
	if r.Tuples[0][0].AsString() != "Tom" || r.Tuples[1][0].AsString() != "Jane" {
		t.Errorf("order wrong:\n%v", r)
	}
	if r.Schema.Cols[0].Name != "EmpName" {
		t.Errorf("schema: %v", r.Schema)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT * FROM POSITION")
	if r.Cardinality() != 3 || r.Schema.Len() != 4 {
		t.Fatalf("star: %v", r)
	}
	if r.Schema.Cols[0].Name != "PosID" {
		t.Errorf("unqualified names expected: %v", r.Schema)
	}
}

func TestExpressions(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT T2 - T1 AS Dur, GREATEST(T1, 4), LEAST(T2, 21) FROM POSITION WHERE PosID = 2")
	if r.Cardinality() != 1 {
		t.Fatalf("rows: %v", r)
	}
	row := r.Tuples[0]
	if row[0].AsInt() != 5 || row[1].AsInt() != 5 || row[2].AsInt() != 10 {
		t.Errorf("row = %v", row)
	}
	if r.Schema.Cols[0].Name != "Dur" {
		t.Errorf("alias lost: %v", r.Schema)
	}
}

func TestJoinDefault(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, `SELECT P.PosID, E.Addr FROM POSITION P, EMP E
		WHERE P.EmpName = E.EmpName ORDER BY P.PosID, E.Addr`)
	if r.Cardinality() != 3 {
		t.Fatalf("join rows = %d\n%v", r.Cardinality(), r)
	}
}

func TestJoinMethodsAgree(t *testing.T) {
	db := testDB(t)
	// NULL keys, which no join method may match, and rows that match on
	// a second key column.
	for _, sql := range []string{
		"INSERT INTO POSITION VALUES (3, NULL, 2, 9), (4, 'Jane', NULL, 30)",
		"INSERT INTO EMP VALUES (NULL, '5 Ash Ct', 2.0), ('Tom', '7 Fir Ln', 2.0), ('Jane', '3 Elm Ct', NULL)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	for _, where := range []string{"P.EmpName = E.EmpName", "P.EmpName = E.EmpName AND P.T1 = E.Salary"} {
		base := "SELECT P.PosID, P.EmpName, E.Salary FROM POSITION P, EMP E WHERE " + where
		want := queryAll(t, db, base)
		if want.Cardinality() == 0 {
			t.Fatalf("%s: no rows", where)
		}
		for _, hint := range []string{"/*+ USE_NL */", "/*+ USE_MERGE */", "/*+ USE_HASH */"} {
			got := queryAll(t, db, strings.Replace(base, "SELECT", "SELECT "+hint, 1))
			if !rel.EqualAsMultisets(want, got) {
				t.Errorf("%s on %s disagrees:\n%v\nvs\n%v", hint, where, want, got)
			}
		}
	}
}

// TestNullKeysNeverJoin: a key with a NULL column matches no key, NULL
// included. xxl's merge and temporal joins return what the engine's
// hash join returns, and so does the engine under every join hint, on
// one key column and on two.
func TestNullKeysNeverJoin(t *testing.T) {
	i, null := types.Int, types.Null
	mk := func(rows ...types.Tuple) *rel.Relation {
		r := itertest.Ints("K J T1 T2")
		for _, row := range rows {
			r.Append(row)
		}
		return r
	}
	a := mk(types.Tuple{null, i(1), i(0), i(10)}, types.Tuple{null, null, i(2), i(8)}, types.Tuple{i(1), null, i(0), i(5)},
		types.Tuple{i(1), i(1), i(3), i(9)}, types.Tuple{i(2), i(2), i(1), i(4)}, types.Tuple{i(3), null, i(0), i(6)})
	b := mk(types.Tuple{null, i(1), i(1), i(3)}, types.Tuple{null, null, i(4), i(9)}, types.Tuple{i(1), null, i(2), i(7)},
		types.Tuple{i(1), i(1), i(0), i(4)}, types.Tuple{i(2), i(2), i(2), i(6)}, types.Tuple{i(3), i(1), i(1), i(2)})
	db := Open(Config{})
	for name, r := range map[string]*rel.Relation{"A": a, "B": b} {
		if _, err := db.Exec("CREATE TABLE " + name + " (K INTEGER, J INTEGER, T1 INTEGER, T2 INTEGER)"); err != nil {
			t.Fatal(err)
		}
		if err := db.BulkLoad(name, r.Tuples); err != nil {
			t.Fatal(err)
		}
	}
	sorted := func(r *rel.Relation, keys []int) rel.Iterator { return xxl.NewSort(r.Iter(), keys) }
	for _, keys := range [][]int{{0}, {0, 1}} {
		where := "A.K = B.K"
		if len(keys) == 2 {
			where += " AND A.J = B.J"
		}
		const cols = " A.K, A.J, A.T1, A.T2, B.K, B.J, B.T1, B.T2 FROM A, B WHERE "
		join := queryAll(t, db, "SELECT /*+ USE_HASH */"+cols+where)
		tjoin := queryAll(t, db, "SELECT /*+ USE_HASH */ A.K, A.J, GREATEST(A.T1, B.T1), LEAST(A.T2, B.T2), B.K, B.J"+
			" FROM A, B WHERE "+where+" AND A.T1 < B.T2 AND B.T1 < A.T2")
		if join.Cardinality() == 0 || tjoin.Cardinality() == 0 {
			t.Fatalf("%s: the hash joins return no rows", where)
		}
		for _, c := range []struct {
			name string
			it   rel.Iterator
			want *rel.Relation
		}{
			{"MergeJoin", xxl.NewMergeJoin(sorted(a, keys), sorted(b, keys), keys, keys), join},
			{"TJoin", xxl.NewTJoin(sorted(a, keys), sorted(b, keys), keys, keys, 2, 3, 2, 3), tjoin},
		} {
			got, err := rel.Drain(c.it)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, where, err)
			}
			if !rel.EqualAsMultisets(c.want, got) {
				t.Errorf("%s on %s:\n%v\nwant the hash join's\n%v", c.name, where, got, c.want)
			}
		}
		for _, hint := range []string{"", "/*+ USE_NL */", "/*+ USE_MERGE */"} {
			if got := queryAll(t, db, "SELECT "+hint+cols+where); !rel.EqualAsMultisets(join, got) {
				t.Errorf("%q on %s:\n%v\nwant the hash join's\n%v", hint, where, got, join)
			}
		}
	}
}

// TestOrderBySpills: an ORDER BY over more rows than a sort holds in
// memory spills sorted runs to the temporary directory, returns the
// rows in order, and removes its runs at Close.
func TestOrderBySpills(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	n := xxl.DefaultSortMemory + 1
	rows := make([]types.Tuple, n)
	for k := range rows {
		rows[k] = types.Tuple{types.Int(int64(k*7919) % int64(n)), types.Int(int64(k))}
	}
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE R (K INTEGER, V INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad("R", rows); err != nil {
		t.Fatal(err)
	}
	runs := func() []string {
		files, err := filepath.Glob(filepath.Join(dir, "tango-sort-*.run"))
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	it, err := db.Query("SELECT K, V FROM R ORDER BY K DESC")
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if len(runs()) == 0 {
		t.Fatal("the sort spilled no runs")
	}
	got, prev := 0, int64(n)
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		k := r[0].AsInt()
		if k >= prev {
			t.Fatalf("row %d: key %d after %d", got, k, prev)
		}
		prev = k
		got++
	}
	if got != n {
		t.Fatalf("%d rows, want %d", got, n)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if left := runs(); len(left) > 0 {
		t.Errorf("runs left after Close: %v", left)
	}
}

// TestHashJoinKeysOnce: the hash join evaluates each row's join key
// once — a build row when it is hashed, a probe row when it arrives —
// however many bucket candidates the probe row is compared with.
func TestHashJoinKeysOnce(t *testing.T) {
	l := itertest.Ints("K V", []int64{1, 10}, []int64{1, 11}, []int64{2, 20}, []int64{3, 30})
	r := itertest.Ints("K W", []int64{1, 100}, []int64{1, 101}, []int64{2, 200}, []int64{4, 400})
	var lcalls, rcalls int
	counted := func(calls *int) []evalFunc {
		return []evalFunc{func(t types.Tuple) (types.Value, error) { *calls++; return t[0], nil }}
	}
	got, err := rel.Drain(newHashJoin(l.Iter(), r.Iter(), counted(&lcalls), counted(&rcalls), nil))
	if err != nil || got.Cardinality() != 5 {
		t.Fatalf("join: %v, err %v", got, err)
	}
	if lcalls != len(l.Tuples) || rcalls != len(r.Tuples) {
		t.Errorf("key evaluations: left %d, right %d; want one per row (%d, %d)",
			lcalls, rcalls, len(l.Tuples), len(r.Tuples))
	}
}

// TestSortKeyErrorFirst: an ORDER BY key that fails on some rows fails
// the sort with the error of the first failing row in input order,
// whether the sort is small or large.
func TestSortKeyErrorFirst(t *testing.T) {
	for _, n := range []int{5, 40} {
		in := itertest.Ints("K V")
		for i := range n {
			in.Append(types.Tuple{types.Int(int64((i * 7) % n)), types.Int(int64(i))})
		}
		failOn := func(col int, row int64) evalFunc {
			return func(t types.Tuple) (types.Value, error) {
				if t[1].AsInt() == row {
					return types.Null, fmt.Errorf("key %d fails on row %d", col, row)
				}
				return t[col], nil
			}
		}
		keys := []sortKey{{expr: failOn(0, int64(n-1))}, {expr: failOn(1, 3), desc: true}}
		_, err := rel.Drain(newSort(in.Iter(), keys))
		if want := "key 1 fails on row 3"; err == nil || err.Error() != want {
			t.Errorf("n=%d: sort error %v, want %q", n, err, want)
		}
	}
}

func TestIndexNestedLoopJoin(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE INDEX emp_name ON EMP (EmpName)"); err != nil {
		t.Fatal(err)
	}
	want := queryAll(t, db, "SELECT P.PosID, E.Salary FROM POSITION P, EMP E WHERE P.EmpName = E.EmpName")
	got := queryAll(t, db, "SELECT /*+ USE_NL */ P.PosID, E.Salary FROM POSITION P, EMP E WHERE P.EmpName = E.EmpName")
	if !rel.EqualAsMultisets(want, got) {
		t.Errorf("index NL join disagrees:\n%v\nvs\n%v", want, got)
	}
}

func TestThetaJoin(t *testing.T) {
	db := testDB(t)
	// Temporal overlap join (no equality): must fall back to NL.
	r := queryAll(t, db, `SELECT A.EmpName, B.EmpName FROM POSITION A, POSITION B
		WHERE A.PosID = B.PosID AND A.T1 < B.T2 AND A.T2 > B.T1`)
	// Overlapping pairs within PosID 1: (Tom,Tom),(Tom,Jane),(Jane,Tom),(Jane,Jane);
	// PosID 2: (Tom,Tom). Total 5.
	if r.Cardinality() != 5 {
		t.Fatalf("theta join rows = %d\n%v", r.Cardinality(), r)
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT PosID, COUNT(*), MIN(T1), MAX(T2), SUM(T2-T1) FROM POSITION GROUP BY PosID ORDER BY PosID")
	if r.Cardinality() != 2 {
		t.Fatalf("groups: %v", r)
	}
	row := r.Tuples[0]
	if row[0].AsInt() != 1 || row[1].AsInt() != 2 || row[2].AsInt() != 2 || row[3].AsInt() != 25 || row[4].AsInt() != 38 {
		t.Errorf("group 1 = %v", row)
	}
	row = r.Tuples[1]
	if row[0].AsInt() != 2 || row[1].AsInt() != 1 {
		t.Errorf("group 2 = %v", row)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT PosID FROM POSITION GROUP BY PosID HAVING COUNT(*) > 1")
	if r.Cardinality() != 1 || r.Tuples[0][0].AsInt() != 1 {
		t.Fatalf("having: %v", r)
	}
}

func TestGrandAggregate(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT COUNT(*), AVG(Salary) FROM EMP")
	if r.Cardinality() != 1 || r.Tuples[0][0].AsInt() != 3 {
		t.Fatalf("grand agg: %v", r)
	}
	avg := r.Tuples[0][1].AsFloat()
	if avg < 32.49 || avg > 32.51 {
		t.Errorf("AVG = %v", avg)
	}
	// Empty input still yields one row with COUNT 0.
	r = queryAll(t, db, "SELECT COUNT(*) FROM EMP WHERE Salary > 1000")
	if r.Cardinality() != 1 || r.Tuples[0][0].AsInt() != 0 {
		t.Fatalf("empty grand agg: %v", r)
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT COUNT(DISTINCT EmpName) FROM POSITION")
	if r.Tuples[0][0].AsInt() != 2 {
		t.Fatalf("count distinct: %v", r)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT DISTINCT EmpName FROM POSITION")
	if r.Cardinality() != 2 {
		t.Fatalf("distinct: %v", r)
	}
}

func TestUnion(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT T1 AS t FROM POSITION UNION SELECT T2 AS t FROM POSITION ORDER BY t")
	// T1s: 2,5,5; T2s: 20,25,10 → distinct {2,5,10,20,25}.
	if r.Cardinality() != 5 {
		t.Fatalf("union: %v", r)
	}
	if r.Tuples[0][0].AsInt() != 2 || r.Tuples[4][0].AsInt() != 25 {
		t.Errorf("union order: %v", r)
	}
	r = queryAll(t, db, "SELECT T1 AS t FROM POSITION UNION ALL SELECT T2 AS t FROM POSITION")
	if r.Cardinality() != 6 {
		t.Fatalf("union all: %v", r)
	}
}

func TestDerivedTable(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, `SELECT X.PosID, X.N FROM
		(SELECT PosID, COUNT(*) AS N FROM POSITION GROUP BY PosID) X
		WHERE X.N > 1`)
	if r.Cardinality() != 1 || r.Tuples[0][0].AsInt() != 1 || r.Tuples[0][1].AsInt() != 2 {
		t.Fatalf("derived: %v", r)
	}
}

func TestTemporalAggregationSQLShape(t *testing.T) {
	// The set-based temporal COUNT aggregation the Translator-To-SQL
	// emits (TAGGR^D): constant intervals from per-group event points,
	// then counting covering tuples.
	db := testDB(t)
	sql := `
	SELECT R.PosID AS PosID, I.TS AS T1, I.TE AS T2, COUNT(*) AS CNT
	FROM (
	  SELECT S.G AS G, S.P AS TS, MIN(E.P) AS TE
	  FROM (SELECT PosID AS G, T1 AS P FROM POSITION UNION SELECT PosID AS G, T2 AS P FROM POSITION) S,
	       (SELECT PosID AS G, T1 AS P FROM POSITION UNION SELECT PosID AS G, T2 AS P FROM POSITION) E
	  WHERE S.G = E.G AND E.P > S.P
	  GROUP BY S.G, S.P
	) I, POSITION R
	WHERE R.PosID = I.G AND R.T1 <= I.TS AND R.T2 >= I.TE
	GROUP BY R.PosID, I.TS, I.TE
	ORDER BY PosID, T1`
	r := queryAll(t, db, sql)
	// Expected (Figure 3c): (1,2,5,1),(1,5,20,2),(1,20,25,1),(2,5,10,1).
	want := [][4]int64{{1, 2, 5, 1}, {1, 5, 20, 2}, {1, 20, 25, 1}, {2, 5, 10, 1}}
	if r.Cardinality() != len(want) {
		t.Fatalf("rows = %d\n%v", r.Cardinality(), r)
	}
	for i, w := range want {
		for j := 0; j < 4; j++ {
			if r.Tuples[i][j].AsInt() != w[j] {
				t.Fatalf("row %d = %v, want %v", i, r.Tuples[i], w)
			}
		}
	}
}

func TestInsertSelectAndCoercion(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE COPY (PosID INTEGER, EmpName VARCHAR(40), T1 DATE, T2 DATE)"); err != nil {
		t.Fatal(err)
	}
	n, err := db.Exec("INSERT INTO COPY SELECT * FROM POSITION")
	if err != nil || n != 3 {
		t.Fatalf("insert-select: n=%d err=%v", n, err)
	}
	r := queryAll(t, db, "SELECT T1 FROM COPY WHERE PosID = 2")
	if r.Tuples[0][0].Kind() != types.KindDate {
		t.Errorf("int not coerced to date: %v", r.Tuples[0][0].Kind())
	}
}

func TestIndexRangeScan(t *testing.T) {
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE T (K INTEGER, V VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert("T", types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct {
		sql  string
		want int
	}{
		{"SELECT K FROM T WHERE K = 250", 1},
		{"SELECT K FROM T WHERE K < 10", 10},
		{"SELECT K FROM T WHERE K <= 10", 11},
		{"SELECT K FROM T WHERE K > 489", 10},
		{"SELECT K FROM T WHERE K >= 489", 11},
		{"SELECT K FROM T WHERE 489 < K", 10},
		{"SELECT K FROM T WHERE K > 100 AND K < 103", 2},
		{"SELECT K FROM T WHERE K > 10 AND K < 400", 389},
		// A comparison with NULL holds for no row; as an index bound
		// NULL would mean "unbounded".
		{"SELECT K FROM T WHERE K = NULL", 0},
		{"SELECT K FROM T WHERE K <= NULL", 0},
		{"SELECT K FROM T WHERE K >= NULL", 0},
		{"SELECT K FROM T WHERE NULL >= K", 0},
	}
	// Each query returns the same multiset without the index, through it
	// by rule (no statistics), and by the path ANALYZE's statistics pick.
	var first []*rel.Relation
	for _, step := range []string{"", "CREATE INDEX tk ON T (K)", "ANALYZE T"} {
		if step != "" {
			if _, err := db.Exec(step); err != nil {
				t.Fatal(err)
			}
		}
		for i, q := range queries {
			r := queryAll(t, db, q.sql)
			if r.Cardinality() != q.want {
				t.Errorf("after %q: %s: %d rows, want %d", step, q.sql, r.Cardinality(), q.want)
			}
			if len(first) <= i {
				first = append(first, r)
			} else if !rel.EqualAsMultisets(first[i], r) {
				t.Errorf("after %q: %s: rows differ from the unindexed scan's", step, q.sql)
			}
		}
	}
}

// TestAccessPathByCost: after ANALYZE the planner reads a table by the
// cheaper of a heap scan (its pages) and an index range scan (the
// range's selectivity times the clustering factor); without statistics
// for the index it keeps the rule that any indexed range is an index
// scan.
func TestAccessPathByCost(t *testing.T) {
	// POSITION's PosIDs are Zipf-skewed over 0..1000 and stored in no
	// key order: PosID < 5 holds for most rows, though min/max
	// interpolation would call it 0.5 %.
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpID INTEGER, EmpName VARCHAR(40), Title VARCHAR(60))"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 1000)
	rows := make([]types.Tuple, 6000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(zipf.Uint64())), types.Int(rng.Int63n(4000)),
			types.Str(fmt.Sprintf("Employee %d", rng.Intn(4000))), types.Str(strings.Repeat("t", 40))}
	}
	rows[0][0] = types.Int(1000) // pin the maximum
	if err := db.BulkLoad("POSITION", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE INDEX pos_posid ON POSITION (PosID)"); err != nil {
		t.Fatal(err)
	}
	const (
		unselective = "SELECT PosID, EmpName FROM POSITION WHERE PosID < 5"
		selective   = "SELECT PosID, EmpName FROM POSITION WHERE PosID = 700"
		empID       = "SELECT PosID, EmpName FROM POSITION WHERE EmpID > 20"
	)
	check := func(when, sql, want string) {
		t.Helper()
		if got := accessPaths(t, db, sql); !slices.Equal(got, []string{want}) {
			t.Errorf("%s: %s reads by %v, want [%s]", when, sql, got, want)
		}
	}
	check("before ANALYZE", unselective, "index")
	check("before ANALYZE", selective, "index")
	if _, err := db.Exec("ANALYZE POSITION HISTOGRAM 20"); err != nil {
		t.Fatal(err)
	}
	check("after ANALYZE", unselective, "heap")
	check("after ANALYZE", selective, "index")
	if _, err := db.Exec("CREATE INDEX pos_empid ON POSITION (EmpID)"); err != nil {
		t.Fatal(err)
	}
	check("index created after ANALYZE", empID, "index")
	check("index created after ANALYZE", unselective, "heap")
}

func TestAnalyzeStatistics(t *testing.T) {
	db := testDB(t)
	stats, err := db.Analyze("POSITION", 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cardinality != 3 || stats.Blocks < 1 {
		t.Fatalf("stats: %+v", stats)
	}
	cs := stats.Column("PosID")
	if cs == nil || cs.Distinct != 2 || cs.Min.AsInt() != 1 || cs.Max.AsInt() != 2 {
		t.Fatalf("PosID stats: %+v", cs)
	}
	// With histograms.
	stats, err = db.Analyze("POSITION", 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Column("T1").Histogram == nil {
		t.Error("expected histogram on T1")
	}
	if stats.Column("EmpName").Histogram != nil {
		t.Error("no histogram expected on strings")
	}
	// NaN is one distinct value but no bound, and -0 is 0.
	if _, err := db.Exec("CREATE TABLE N (X FLOAT, Z FLOAT)"); err != nil {
		t.Fatal(err)
	}
	f := types.Float
	if err := db.BulkLoad("N", []types.Tuple{{f(math.NaN()), f(0)}, {f(1), f(math.Copysign(0, -1))}, {f(2), types.Null}}); err != nil {
		t.Fatal(err)
	}
	if stats, err = db.Analyze("N", 4); err != nil {
		t.Fatal(err)
	}
	x, z := stats.Column("X"), stats.Column("Z")
	if x.Distinct != 3 || x.Min.AsFloat() != 1 || x.Max.AsFloat() != 2 || z.Distinct != 1 {
		t.Fatalf("X: distinct %d, min %v, max %v; Z: distinct %d", x.Distinct, x.Min, x.Max, z.Distinct)
	}
	if h := x.Histogram; h.Rows != 2 || h.Bounds[0] != 1 || h.Bounds[len(h.Bounds)-1] != 2 {
		t.Fatalf("X histogram: %+v", h)
	}
}

func TestDDLErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("CREATE TABLE POSITION (X INTEGER)"); err == nil {
		t.Error("duplicate create should fail")
	}
	if _, err := db.Exec("CREATE TABLE IF NOT EXISTS POSITION (X INTEGER)"); err != nil {
		t.Errorf("create if not exists: %v", err)
	}
	if tb, err := db.Table("POSITION"); err != nil || tb.Schema.ColumnIndex("X") >= 0 {
		t.Errorf("create if not exists replaced the table: %v", err)
	}
	if _, err := db.Exec("DROP TABLE NOPE"); err == nil {
		t.Error("drop missing should fail")
	}
	if _, err := db.Exec("DROP TABLE IF EXISTS NOPE"); err != nil {
		t.Errorf("drop if exists: %v", err)
	}
	if _, err := db.Query("SELECT Nope FROM POSITION"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Query("SELECT * FROM NOPE"); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Exec("INSERT INTO POSITION VALUES (1)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := db.Query("SELECT EmpName, COUNT(*) FROM POSITION GROUP BY PosID"); err == nil {
		t.Error("non-grouped column should fail")
	}
}

func TestDropTableRemovesData(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("DROP TABLE EMP"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("SELECT * FROM EMP"); err == nil {
		t.Error("query after drop should fail")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "POSITION" {
		t.Errorf("tables = %v", names)
	}
}

func TestJoinMethodsLargeRandom(t *testing.T) {
	db := Open(Config{})
	db.Exec("CREATE TABLE A (K INTEGER, X INTEGER)")
	db.Exec("CREATE TABLE B (K INTEGER, Y INTEGER)")
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		db.Insert("A", types.Tuple{types.Int(rng.Int63n(50)), types.Int(int64(i))})
	}
	for i := 0; i < 300; i++ {
		db.Insert("B", types.Tuple{types.Int(rng.Int63n(50)), types.Int(int64(i))})
	}
	want := queryAll(t, db, "SELECT A.X, B.Y FROM A, B WHERE A.K = B.K")
	for _, hint := range []string{"/*+ USE_NL */", "/*+ USE_MERGE */", "/*+ USE_HASH */"} {
		got := queryAll(t, db, "SELECT "+hint+" A.X, B.Y FROM A, B WHERE A.K = B.K")
		if !rel.EqualAsMultisets(want, got) {
			t.Errorf("%s join disagrees on random data (want %d rows, got %d)",
				hint, want.Cardinality(), got.Cardinality())
		}
	}
	if want.Cardinality() == 0 {
		t.Error("test data produced no join matches")
	}
}

func TestBetweenAndIsNull(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT EmpName FROM POSITION WHERE T1 BETWEEN 3 AND 6")
	if r.Cardinality() != 2 {
		t.Fatalf("between: %v", r)
	}
	db.Exec("INSERT INTO POSITION (PosID, EmpName) VALUES (3, 'Ann')")
	r = queryAll(t, db, "SELECT EmpName FROM POSITION WHERE T1 IS NULL")
	if r.Cardinality() != 1 || r.Tuples[0][0].AsString() != "Ann" {
		t.Fatalf("is null: %v", r)
	}
	r = queryAll(t, db, "SELECT COUNT(T1) FROM POSITION")
	if r.Tuples[0][0].AsInt() != 3 {
		t.Errorf("COUNT should skip NULLs: %v", r)
	}
}

func TestOrderByDescMulti(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT PosID, T1 FROM POSITION ORDER BY PosID DESC, T1 ASC")
	if r.Tuples[0][0].AsInt() != 2 {
		t.Fatalf("desc order: %v", r)
	}
	if r.Tuples[1][1].AsInt() != 2 || r.Tuples[2][1].AsInt() != 5 {
		t.Errorf("secondary asc order: %v", r)
	}
}

func TestLimit(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT T1 FROM POSITION ORDER BY T1 LIMIT 2")
	if r.Cardinality() != 2 || r.Tuples[0][0].AsInt() != 2 || r.Tuples[1][0].AsInt() != 5 {
		t.Fatalf("limit: %v", r)
	}
	// LIMIT larger than the result is a no-op.
	r = queryAll(t, db, "SELECT T1 FROM POSITION LIMIT 100")
	if r.Cardinality() != 3 {
		t.Fatalf("big limit: %v", r)
	}
	// LIMIT over a union applies to the whole result.
	r = queryAll(t, db, "SELECT T1 AS t FROM POSITION UNION ALL SELECT T2 AS t FROM POSITION ORDER BY t LIMIT 4")
	if r.Cardinality() != 4 {
		t.Fatalf("union limit: %v", r)
	}
	if _, err := db.Query("SELECT T1 FROM POSITION LIMIT -1"); err == nil {
		t.Error("negative limit should fail to parse")
	}
}

func TestOrderByOutputAlias(t *testing.T) {
	db := testDB(t)
	r := queryAll(t, db, "SELECT PosID, COUNT(*) AS N FROM POSITION GROUP BY PosID ORDER BY N DESC")
	if r.Cardinality() != 2 || r.Tuples[0][1].AsInt() != 2 {
		t.Fatalf("order by alias: %v", r)
	}
}

// TestHashJoinMatchesSignedZeros: -0.0 = +0.0 (Compare calls them
// equal), so the hash join matches them as the nested-loop and merge
// joins do.
func TestHashJoinMatchesSignedZeros(t *testing.T) {
	db := Open(Config{})
	for _, sql := range []string{
		"CREATE TABLE L (X FLOAT)", "CREATE TABLE R (Y FLOAT)",
		"INSERT INTO L VALUES (-0.0)", "INSERT INTO R VALUES (0.0)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	if l := queryAll(t, db, "SELECT X FROM L"); !math.Signbit(l.Tuples[0][0].AsFloat()) {
		t.Fatalf("L holds %v, want -0", l.Tuples[0][0])
	}
	for _, hint := range []string{"", "/*+ USE_NL */", "/*+ USE_MERGE */", "/*+ USE_HASH */"} {
		if got := queryAll(t, db, "SELECT "+hint+" X, Y FROM L, R WHERE X = Y"); got.Cardinality() != 1 {
			t.Errorf("join %q: %d rows, want 1", hint, got.Cardinality())
		}
	}
}

// TestMetaEpoch: the metadata epoch moves with a base table's schema,
// index set and replaced statistics, and with nothing else.
func TestMetaEpoch(t *testing.T) {
	db := Open(Config{})
	epoch := db.MetaEpoch()
	step := func(what string, moves bool, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := epoch
		if moves {
			want++
		}
		if got := db.MetaEpoch(); got != want {
			t.Fatalf("%s: epoch %d, want %d", what, got, want)
		}
		epoch = want
	}
	exec := func(sql string) func() error {
		return func() error { _, err := db.Exec(sql); return err }
	}
	step("create", true, exec("CREATE TABLE T (K INTEGER, V VARCHAR(8))"))
	step("insert", false, exec("INSERT INTO T VALUES (1, 'a'), (2, 'b')"))
	step("load", false, func() error {
		return db.BulkLoad("T", []types.Tuple{{types.Int(3), types.Str("c")}})
	})
	step("first analyze", false, exec("ANALYZE T"))
	step("second analyze", true, exec("ANALYZE T"))
	step("load after analyze", false, func() error {
		return db.BulkLoad("T", []types.Tuple{{types.Int(4), types.Str("d")}})
	})
	step("analyze replacing cleared statistics", true, exec("ANALYZE T"))
	step("create index", true, exec("CREATE INDEX t_k ON T (K)"))
	step("temp create", false, exec("CREATE TABLE "+TempPrefix+"1 (K INTEGER)"))
	step("temp analyze", false, exec("ANALYZE "+TempPrefix+"1"))
	step("temp analyze again", false, exec("ANALYZE "+TempPrefix+"1"))
	step("temp drop", false, exec("DROP TABLE "+TempPrefix+"1"))

	snap := db.Snapshot()
	defer snap.Release()
	step("drop", true, exec("DROP TABLE T"))
	if snap.MetaEpoch() != epoch-1 {
		t.Fatalf("snapshot pinned before the drop reads epoch %d, want %d", snap.MetaEpoch(), epoch-1)
	}
	step("recreate", true, exec("CREATE TABLE T (V VARCHAR(8), K INTEGER)"))
	tbl, at, err := db.TableEpoch("t")
	if err != nil || at != epoch || tbl.Schema.Cols[0].Name != "V" {
		t.Fatalf("TableEpoch: %v at %d (%v), want the recreated T at %d", tbl, at, err, epoch)
	}
}
