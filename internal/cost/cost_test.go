package cost

import (
	"math"
	"reflect"
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

// TestOpCost pins every operator's price at both locations against
// the Figure 6 and generic-DBMS formulas worked by hand. Each factor
// has its own value, so a formula weighing the wrong factor shows.
func TestOpCost(t *testing.T) {
	m := &Model{F: Factors{TM: 1, TD: 2, SelM: 3, TAggrM1: 4, TAggrM2: 5, TAggrD1: 6, TAggrD2: 7,
		SortM: 8, SortD: 9, JoinM: 10, JoinD: 11, ScanD: 12, DupM: 13, CoalM: 14}}
	in := &stats.RelStats{Card: 1024, AvgTupleSize: 10}   // 10,240 bytes; log2(card) = 10
	right := &stats.RelStats{Card: 100, AvgTupleSize: 20} // 2,000 bytes
	out := &stats.RelStats{Card: 50, AvgTupleSize: 30}    // 1,500 bytes
	one := &stats.RelStats{Card: 1, AvgTupleSize: 10}     // log2 floors at 1
	x := algebra.Scan("R", "")
	keys := []string{"A"}
	inf := math.Inf(1)
	for _, c := range []struct {
		name    string
		n       *algebra.Node
		in      []*stats.RelStats
		mw, dbm float64
	}{
		{"Scan: ScanD·out", x, nil, 12 * 1500, 12 * 1500},
		{"T^M: TM·in", algebra.TM(x), []*stats.RelStats{in}, 1 * 10240, 1 * 10240},
		{"T^D: TD·in", algebra.TD(x), []*stats.RelStats{in}, 2 * 10240, 2 * 10240},
		{"Select: SelM·f(P)·in; free in the DBMS", algebra.Select(x, mustPredExpr(t, "A = 1 AND B = 2")), []*stats.RelStats{in}, 3 * 2 * 10240, 0},
		{"Sort: Sort·in·log2(card)", algebra.Sort(x, keys...), []*stats.RelStats{in}, 8 * 10240 * 10, 9 * 10240 * 10},
		{"Sort of one row", algebra.Sort(x, keys...), []*stats.RelStats{one}, 8 * 10, 9 * 10},
		{"Join: Join·(left+right+out)", algebra.Join(x, x, keys, keys), []*stats.RelStats{in, right}, 10 * 13740, 11 * 13740},
		{"TJoin: as Join", algebra.TJoin(x, x, keys, keys), []*stats.RelStats{in, right}, 10 * 13740, 11 * 13740},
		{"TAggr: SortM·in·log2(card) + TAggrM1·in + TAggrM2·out; TAggrD1·in + TAggrD2·out",
			algebra.TAggr(x, keys), []*stats.RelStats{in}, 8*10240*10 + 4*10240 + 5*1500, 6*10240 + 7*1500},
		{"DupElim: DupM·in; a DBMS sort", algebra.DupElim(x), []*stats.RelStats{in}, 13 * 10240, 9 * 10240 * 10},
		{"Coalesce: CoalM·in; not executable in the DBMS", algebra.Coalesce(x), []*stats.RelStats{in}, 14 * 10240, inf},
		{"Project: free", algebra.ProjectCols(x, "A"), []*stats.RelStats{in}, 0, 0},
	} {
		if got := m.OpCost(c.n, algebra.LocMW, out, c.in...); got != c.mw {
			t.Errorf("%s: middleware %v, want %v", c.name, got, c.mw)
		}
		if got := m.OpCost(c.n, algebra.LocDBMS, out, c.in...); got != c.dbm {
			t.Errorf("%s: DBMS %v, want %v", c.name, got, c.dbm)
		}
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
	check("SelM", f.SelM)
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

// TestFitRecoversFactors: samples timed through the term list at
// known factors fit back to those factors, every one the calibrator
// fits — in calibration order, as TAGGR^M's samples deduct SortM.
func TestFitRecoversFactors(t *testing.T) {
	want := Factors{TM: 0.071, TD: 0.053, SelM: 0.0013, TAggrM1: 0.0041, TAggrM2: 0.0067, TAggrD1: 0.21, TAggrD2: 0.37,
		SortM: 0.0011, SortD: 0.0017, JoinM: 0.0023, JoinD: 0.0097, ScanD: 0.0043}
	observe := func(n *algebra.Node, in, out, card float64) ObservedOp {
		return ObservedOp{Node: n, InBytes: in, OutBytes: out, InCard: card, Micros: want.terms(n, n.Loc(), in, out, card).cost()}
	}
	db := algebra.Scan("R", "")
	mw := algebra.TM(db)
	keys := []string{"G"}
	got := DefaultFactors()
	for _, s := range [][]ObservedOp{
		{observe(algebra.TD(mw), 21015, 0, 0)},
		{observe(mw, 21062, 0, 0)},
		{observe(db, 0, 96000, 0)},
		{observe(algebra.Sort(db, keys...), 96000, 96000, 3000)},
		{observe(algebra.Join(db, db, keys, keys), 192000, 77088, 3000)},
		{observe(algebra.Sort(mw, keys...), 96000, 96000, 3000)},
		{observe(algebra.Select(mw, mustPredExpr(t, "V < 500")), 96000, 47808, 3000)},
		{observe(algebra.Join(mw, mw, keys, keys), 192000, 1.17e7, 6000)},
		{observe(algebra.TAggr(mw, keys), 96000, 182176, 3000), observe(algebra.TAggr(mw, keys), 48000, 40000, 1500)},
		{observe(algebra.TAggr(db, keys), 16000, 31712, 500), observe(algebra.TAggr(db, keys), 8000, 16000, 250)},
	} {
		got.fit(s...)
	}
	// A failed calibration step's empty sample fits nothing.
	before := got
	if got.fit(observe(algebra.TAggr(db, keys), 16000, 31712, 500), ObservedOp{}); got != before {
		t.Errorf("a pair with an empty sample moved the factors to %+v", got)
	}
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		if name == "DupM" || name == "CoalM" { // derived priors, not fitted
			continue
		}
		if x, y := g.Field(i).Float(), w.Field(i).Float(); math.Abs(x-y) > 1e-9*y {
			t.Errorf("%s fit to %v, want %v", name, x, y)
		}
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
