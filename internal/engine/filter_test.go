package engine

import (
	"math"
	"reflect"
	"testing"

	"tango/internal/eval"
	"tango/internal/rel"
	"tango/internal/sqlparser"
	"tango/internal/types"
	"tango/internal/xxl"
)

// filterDB holds a table with a column of every kind — I with NULLs,
// F with NaN and ±0.0, S with strings that read as numbers, D, B, and
// X holding every kind at once — bulk loaded onto full pages, then
// grown by single inserts on its tail page. It returns the snapshot
// taken between two of those inserts, whose scans cut the tail page at
// its slot bound.
func filterDB(t *testing.T) (*DB, *Snapshot) {
	t.Helper()
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE T (I INTEGER, F FLOAT, S VARCHAR(20), D DATE, B BOOLEAN, X INTEGER)"); err != nil {
		t.Fatal(err)
	}
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, -1, 3, math.Inf(1), 7.25}
	strs := []string{"", "3", "abc", "2.5", "-1", "1970-01-04", "true", "zz"}
	row := func(i int) types.Tuple {
		r := types.Tuple{
			types.Int(int64(i%11 - 3)), types.Float(floats[i%len(floats)]), types.Str(strs[i%len(strs)]),
			types.Date(int64(i % 9)), types.Bool(i%3 == 0),
		}
		if i%7 == 0 {
			r[0] = types.Null
		}
		return append(r, r[(i/2)%len(r)]) // X: a value of each kind in turn, NULL too
	}
	rows := make([]types.Tuple, 2000)
	for i := range rows {
		rows[i] = row(i)
	}
	if err := db.BulkLoad("T", rows); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	for i := 2000; i < 2040; i++ {
		if err := db.Insert("T", row(i)); err != nil {
			t.Fatal(err)
		}
		if i == 2020 {
			snap = db.Snapshot()
		}
	}
	t.Cleanup(snap.Release)
	return db, snap
}

// TestPushedFilterMatchesEval: a WHERE clause "column op literal" —
// every operator, on a column of every kind, against a literal of every
// kind, on either side — returns, through the heap scan that tests it
// on each page's words, the multiset of rows that SELECT * filtered
// by the compiled clause returns: over full pages and the tail page, and
// through a snapshot whose bound cuts the tail page.
func TestPushedFilterMatchesEval(t *testing.T) {
	db, snap := filterDB(t)
	lits := []string{"3", "-1", "0", "2.5", "-0.0", "'3'", "'abc'", "''", "DATE '1970-01-04'", "TRUE", "FALSE"}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	readers := []struct {
		name  string
		query func(string) (*rel.Relation, error)
	}{
		{"db", db.QueryAll},
		{"snapshot", func(sql string) (*rel.Relation, error) {
			it, err := snap.Query(sql)
			if err != nil {
				return nil, err
			}
			return rel.Drain(it)
		}},
	}
	for _, rd := range readers {
		all, err := rd.query("SELECT * FROM T")
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"I", "F", "S", "D", "B", "X"} {
			for _, op := range ops {
				for _, lit := range lits {
					for _, where := range []string{col + " " + op + " " + lit, lit + " " + op + " " + col} {
						sql := "SELECT * FROM T WHERE " + where
						got, err := rd.query(sql)
						if err != nil {
							t.Fatalf("%s: %s: %v", rd.name, sql, err)
						}
						want := evalFilter(t, all, where)
						if !rel.EqualAsMultisets(got, want) {
							t.Fatalf("%s: %s: %d rows, want %d", rd.name, sql, got.Cardinality(), want.Cardinality())
						}
					}
				}
			}
		}
	}
	if n := filterCount(t, db, "SELECT * FROM T WHERE 3 < I AND F <= 2.5 AND S <> 'abc'"); n != 0 {
		t.Errorf("%d filter iterators over a heap scan of pushed conjuncts, want 0", n)
	}
}

// evalFilter returns the rows of all that the compiled WHERE clause
// where passes.
func evalFilter(t *testing.T, all *rel.Relation, where string) *rel.Relation {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT * FROM T WHERE " + where)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eval.Compile(sel.Where, all.Schema)
	if err != nil {
		t.Fatal(err)
	}
	out := rel.New(all.Schema)
	for _, row := range all.Tuples {
		v, err := pred(row)
		if err != nil {
			t.Fatal(err)
		}
		if !v.IsNull() && v.AsBool() {
			out.Tuples = append(out.Tuples, row)
		}
	}
	return out
}

// filterCount counts the filter iterators in sql's plan.
func filterCount(t *testing.T, db *DB, sql string) int {
	n := 0
	walkPlan(t, db, sql, func(v reflect.Value) {
		if v.Type() == reflect.TypeOf(xxl.Filter{}) {
			n++
		}
	})
	return n
}

// TestPushedFilterUnderIndexJoin: an index nested-loop join reads its
// inner table through the index, not through the heap scan, so it is
// never planned over a scan that carries conjuncts, and a USE_NL join
// with a selection on its inner side returns what the hash join does.
func TestPushedFilterUnderIndexJoin(t *testing.T) {
	db := pruningDB(t)
	const join = " P.PosID, E.EmpID FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID AND E.Salary > 40"
	nl, err := db.QueryAll("SELECT /*+ USE_NL */" + join)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := db.QueryAll("SELECT" + join)
	if err != nil {
		t.Fatal(err)
	}
	if hash.Cardinality() == 0 || !rel.EqualAsMultisets(nl, hash) {
		t.Fatalf("USE_NL join: %d rows, hash join: %d", nl.Cardinality(), hash.Cardinality())
	}
}
