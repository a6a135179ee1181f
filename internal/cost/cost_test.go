package cost

import (
	"runtime"
	"testing"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/stats"
	"tango/internal/types"
	"tango/internal/wire"
)

// fixedSource serves canned statistics.
type fixedSource map[string]*meta.TableStats

func (s fixedSource) TableStats(table string, _ int) (*meta.TableStats, error) {
	return s[table], nil
}

type fixedCatalog map[string]types.Schema

func (c fixedCatalog) TableSchema(name string) (types.Schema, error) {
	return c[name], nil
}

func testModel() *Model {
	cat := fixedCatalog{
		"POSITION": types.NewSchema(
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "EmpName", Kind: types.KindString},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
		),
	}
	src := fixedSource{
		"POSITION": {
			Table: "POSITION", Cardinality: 80000, AvgTupleSize: 40,
			Columns: map[string]*meta.ColumnStats{
				"POSID": {Name: "PosID", Distinct: 2000, Min: types.Int(1), Max: types.Int(2000)},
				"T1":    {Name: "T1", Distinct: 5000, Min: types.Int(0), Max: types.Int(10000)},
				"T2":    {Name: "T2", Distinct: 5000, Min: types.Int(10), Max: types.Int(10100)},
			},
		},
	}
	est := stats.NewEstimator(cat, src)
	return NewModel(est)
}

func taggrPlanDBMS() *algebra.Node {
	taggr := algebra.TAggr(algebra.Scan("POSITION", ""), []string{"PosID"},
		algebra.Agg{Fn: "COUNT", Col: "PosID"})
	return algebra.TM(taggr)
}

func taggrPlanMW() *algebra.Node {
	sorted := algebra.Sort(algebra.Scan("POSITION", ""), "PosID", "T1")
	taggr := algebra.TAggr(algebra.TM(sorted), []string{"PosID"},
		algebra.Agg{Fn: "COUNT", Col: "PosID"})
	return taggr
}

func TestPlanCostPositiveAndOrdered(t *testing.T) {
	m := testModel()
	dbms, err := m.PlanCost(taggrPlanDBMS())
	if err != nil {
		t.Fatal(err)
	}
	mw, err := m.PlanCost(taggrPlanMW())
	if err != nil {
		t.Fatal(err)
	}
	if dbms <= 0 || mw <= 0 {
		t.Fatalf("costs must be positive: dbms=%g mw=%g", dbms, mw)
	}
	// With the default factors (DBMS temporal aggregation an order of
	// magnitude pricier per byte), the middleware plan must win.
	if mw >= dbms {
		t.Errorf("middleware TAggr plan should be cheaper: mw=%g dbms=%g", mw, dbms)
	}
}

func TestTransferCostScalesWithSize(t *testing.T) {
	m := testModel()
	small := algebra.TM(algebra.Select(algebra.Scan("POSITION", ""),
		mustPredExpr(t, "PosID = 1")))
	big := algebra.TM(algebra.Scan("POSITION", ""))
	cs, err := m.PlanCost(small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m.PlanCost(big)
	if err != nil {
		t.Fatal(err)
	}
	if cs >= cb {
		t.Errorf("selective transfer should be cheaper: %g vs %g", cs, cb)
	}
}

func TestPredWeight(t *testing.T) {
	for _, c := range []struct {
		pred string
		want float64
	}{
		{"a = 1", 1},
		{"a = 1 AND b = 2 AND c = 3", 3},
		{"a = 1 OR (b = 2 AND NOT c = 3)", 3},
		// Connectives inside string literals are not terms.
		{"(EmpName = 'Smith AND Sons') OR (EmpName = 'X')", 2},
		{"EmpName = ' OR ' AND Dept = 'R AND D'", 2},
	} {
		if w := PredTerms(mustPredExpr(t, c.pred)); w != c.want {
			t.Errorf("PredTerms(%s) = %g, want %g", c.pred, w, c.want)
		}
	}
	if w := PredTerms(nil); w != 1 {
		t.Errorf("no condition: %g, want 1", w)
	}
}

func TestCalibration(t *testing.T) {
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	conn := client.Connect(srv)
	cal := &Calibrator{Conn: conn, Rows: 3000}
	f, err := cal.Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, v float64) {
		if v <= 0 || v != v {
			t.Errorf("factor %s = %g, want positive", name, v)
		}
	}
	check("TM", f.TM)
	check("TD", f.TD)
	check("SortM", f.SortM)
	check("SortD", f.SortD)
	check("JoinM", f.JoinM)
	check("JoinD", f.JoinD)
	check("ScanD", f.ScanD)
	check("TAggrM1", f.TAggrM1)
	check("TAggrM2", f.TAggrM2)
	check("TAggrD1", f.TAggrD1)
	check("TAggrD2", f.TAggrD2)
	// The core asymmetry the paper exploits: DBMS temporal aggregation
	// is far more expensive per byte than the middleware sweep.
	if f.TAggrD1+f.TAggrD2 < (f.TAggrM1+f.TAggrM2)*2 {
		t.Errorf("TAGGR^D (%g+%g) should be clearly pricier than TAGGR^M (%g+%g)",
			f.TAggrD1, f.TAggrD2, f.TAggrM1, f.TAggrM2)
	}
	// No leftover calibration tables.
	for _, name := range db.TableNames() {
		t.Errorf("calibration left table %s", name)
	}
}

// TestCalibrationAllocatesLinearly: JOIN^M calibrates on the sample's
// self-join on G, which has 50 values, so the join's output grows with
// the square of the sample. Calibration must count that output as it
// streams, not keep it: 4× the rows may allocate less than 3× the
// bytes.
func TestCalibrationAllocatesLinearly(t *testing.T) {
	alloc := func(rows int) uint64 {
		conn := client.Connect(server.New(engine.Open(engine.Config{}), wire.Latency{}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (&Calibrator{Conn: conn, Rows: rows}).Calibrate(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(1500), alloc(6000)
	if large >= 3*small {
		t.Fatalf("calibration allocated %.1f MB at 6000 rows, %.1f MB at 1500: %.1fx, want < 3x",
			float64(large)/1e6, float64(small)/1e6, float64(large)/float64(small))
	}
}

func TestSolve2(t *testing.T) {
	// 2*3 + 3*1 = 9; 2*1 + 3*2 = 8.
	p1, p2, ok := solve2(3, 1, 9, 1, 2, 8)
	if !ok || p1 != 2 || p2 != 3 {
		t.Errorf("solve2 = %g, %g, %v", p1, p2, ok)
	}
	if _, _, ok := solve2(1, 1, 5, 2, 2, 10); ok {
		t.Error("singular system should fail")
	}
	if _, _, ok := solve2(1, 0, -5, 0, 1, 3); ok {
		t.Error("negative solution should be rejected")
	}
}

func mustPredExpr(t *testing.T, src string) sqlast.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE " + src)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Where
}
