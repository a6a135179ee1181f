package stats

import (
	"strings"
	"testing"

	"tango/internal/algebra"
	"tango/internal/meta"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

type fixedCatalog map[string]types.Schema

func (c fixedCatalog) TableSchema(name string) (types.Schema, error) {
	if s, ok := c[strings.ToUpper(name)]; ok {
		return s, nil
	}
	return types.Schema{}, &noTable{name}
}

type noTable struct{ name string }

func (e *noTable) Error() string { return "no table " + e.name }

type fixedSource map[string]*meta.TableStats

func (s fixedSource) TableStats(table string, _ int) (*meta.TableStats, error) {
	if ts, ok := s[strings.ToUpper(table)]; ok {
		return ts, nil
	}
	return nil, &noTable{table}
}

func estimator() *Estimator {
	cat := fixedCatalog{
		"POSITION": types.NewSchema(
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "EmpName", Kind: types.KindString},
			types.Column{Name: "PayRate", Kind: types.KindFloat},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
		),
		"EMPLOYEE": types.NewSchema(
			types.Column{Name: "EmpID", Kind: types.KindInt},
			types.Column{Name: "Addr", Kind: types.KindString},
		),
	}
	src := fixedSource{
		"POSITION": {
			Table: "POSITION", Cardinality: 10000, AvgTupleSize: 50,
			Columns: map[string]*meta.ColumnStats{
				"POSID":   {Name: "PosID", Distinct: 100, Min: types.Int(1), Max: types.Int(100)},
				"PAYRATE": {Name: "PayRate", Distinct: 40, Min: types.Float(5), Max: types.Float(45)},
				"T1":      {Name: "T1", Distinct: 3000, Min: types.Int(0), Max: types.Int(6000)},
				"T2":      {Name: "T2", Distinct: 3000, Min: types.Int(100), Max: types.Int(6500)},
			},
		},
		"EMPLOYEE": {
			Table: "EMPLOYEE", Cardinality: 5000, AvgTupleSize: 80,
			Columns: map[string]*meta.ColumnStats{
				"EMPID": {Name: "EmpID", Distinct: 5000, Min: types.Int(1), Max: types.Int(5000)},
			},
		},
	}
	return NewEstimator(cat, src)
}

func TestEstimateScan(t *testing.T) {
	e := estimator()
	s, err := e.Estimate(algebra.Scan("POSITION", ""))
	if err != nil {
		t.Fatal(err)
	}
	if s.Card != 10000 || s.AvgTupleSize != 50 {
		t.Fatalf("scan stats: %+v", s)
	}
	if s.Col("PosID") == nil || s.Col("PosID").Distinct != 100 {
		t.Errorf("column stats lost")
	}
	// Qualified scans keep column stats under qualified names.
	sq, err := e.Estimate(algebra.Scan("POSITION", "A"))
	if err != nil {
		t.Fatal(err)
	}
	if sq.Col("A.PosID") == nil {
		t.Errorf("qualified lookup failed: %v", sq.Cols)
	}
	if sq.Col("PosID") == nil {
		t.Errorf("unqualified fallback failed")
	}
}

func TestEstimateSelectScales(t *testing.T) {
	e := estimator()
	sel, _ := sqlparser.ParseSelect("SELECT 1 WHERE PosID = 7")
	n := algebra.Select(algebra.Scan("POSITION", ""), sel.Where)
	s, err := e.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	// 1/distinct = 1/100 of 10000.
	if s.Card < 80 || s.Card > 120 {
		t.Errorf("equality selection card = %g, want ≈ 100", s.Card)
	}
	// Distinct counts cap at the new cardinality.
	if d := s.Col("T1").Distinct; float64(d) > s.Card+1 {
		t.Errorf("distinct %d exceeds card %g", d, s.Card)
	}
}

func TestEstimateProjectShrinksTupleSize(t *testing.T) {
	e := estimator()
	n := algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2")
	s, err := e.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Card != 10000 {
		t.Errorf("projection changed cardinality: %g", s.Card)
	}
	base, _ := e.Estimate(algebra.Scan("POSITION", ""))
	if s.AvgTupleSize >= base.AvgTupleSize {
		t.Errorf("projection should shrink tuples: %g vs %g", s.AvgTupleSize, base.AvgTupleSize)
	}
}

func TestEstimateJoin(t *testing.T) {
	e := estimator()
	j := algebra.Join(
		algebra.Scan("POSITION", "P"),
		algebra.Scan("EMPLOYEE", "E"),
		[]string{"P.PosID"}, []string{"E.EmpID"})
	s, err := e.Estimate(j)
	if err != nil {
		t.Fatal(err)
	}
	// |P|*|E| / max(distinct) = 1e4*5e3/5e3 = 1e4.
	if s.Card < 5000 || s.Card > 20000 {
		t.Errorf("join card = %g, want ≈ 10000", s.Card)
	}
	if s.AvgTupleSize <= 50 {
		t.Errorf("join tuple size should combine inputs: %g", s.AvgTupleSize)
	}
}

func TestEstimateTemporalJoinOverlapFactor(t *testing.T) {
	e := estimator()
	regular := algebra.Join(
		algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	temporal := algebra.TJoin(
		algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	rs, err := e.Estimate(regular)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Estimate(temporal)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Card >= rs.Card {
		t.Errorf("overlap requirement must reduce cardinality: %g vs %g", ts.Card, rs.Card)
	}
	if ts.Card <= 0 {
		t.Errorf("temporal join card must stay positive: %g", ts.Card)
	}
}

func TestEstimateTAggr(t *testing.T) {
	e := estimator()
	n := algebra.TAggr(
		algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2"),
		[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	s, err := e.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Card <= 0 || s.Card > 2*10000-1 {
		t.Errorf("taggr card = %g outside hard bounds", s.Card)
	}
}

func TestEstimateThroughTransfersAndSorts(t *testing.T) {
	e := estimator()
	n := algebra.TM(algebra.Sort(algebra.TD(algebra.TM(algebra.Scan("POSITION", ""))), "PosID"))
	s, err := e.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Card != 10000 {
		t.Errorf("transfers/sorts must not change stats: %g", s.Card)
	}
}

func TestEstimateDupElimCoalesce(t *testing.T) {
	e := estimator()
	d, err := e.Estimate(algebra.DupElim(algebra.Scan("POSITION", "")))
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.Estimate(algebra.Coalesce(algebra.Scan("POSITION", "")))
	if err != nil {
		t.Fatal(err)
	}
	if d.Card >= 10000 || c.Card >= 10000 {
		t.Errorf("reduction operators should shrink: dup=%g coal=%g", d.Card, c.Card)
	}
}

// TestEstimateSeesFreshStats: the estimator keeps no statistics between
// calls, so a re-ANALYZEd table is estimated from its new statistics.
func TestEstimateSeesFreshStats(t *testing.T) {
	e := estimator()
	src := e.Source.(fixedSource)
	n := algebra.Select(algebra.Scan("POSITION", ""), mustPred(t, "PosID = 7"))
	before, err := e.Estimate(n)
	if err != nil {
		t.Fatal(err)
	}
	grown := *src["POSITION"]
	grown.Cardinality *= 11
	src["POSITION"] = &grown
	after, err := e.Estimate(n.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if after.Card != 11*before.Card {
		t.Errorf("estimate after re-ANALYZE = %g rows, want %g", after.Card, 11*before.Card)
	}
}

// TestSnapshotFetchesEachTableOnce: within one snapshot (one
// optimization), a base table's schema and statistics cross the wire
// once however many scans read it.
func TestSnapshotFetchesEachTableOnce(t *testing.T) {
	e := estimator()
	schemas, tables := map[string]int{}, map[string]int{}
	cat, src := e.Cat, e.Source
	e.Cat = catalogFunc(func(name string) (types.Schema, error) { schemas[name]++; return cat.TableSchema(name) })
	e.Source = sourceFunc(func(name string, b int) (*meta.TableStats, error) { tables[name]++; return src.TableStats(name, b) })
	snap := e.Snapshot()
	self := algebra.TJoin(algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	for i := 0; i < 3; i++ {
		if _, _, err := snap.Estimate(self, nil); err != nil {
			t.Fatal(err)
		}
	}
	if schemas["POSITION"] != 1 || tables["POSITION"] != 1 {
		t.Errorf("POSITION fetched %d schemas and %d statistics, want 1 and 1", schemas["POSITION"], tables["POSITION"])
	}
}

type catalogFunc func(string) (types.Schema, error)

func (f catalogFunc) TableSchema(name string) (types.Schema, error) { return f(name) }

type sourceFunc func(string, int) (*meta.TableStats, error)

func (f sourceFunc) TableStats(name string, buckets int) (*meta.TableStats, error) {
	return f(name, buckets)
}

func mustPred(t *testing.T, src string) sqlast.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE " + src)
	if err != nil {
		t.Fatal(err)
	}
	return sel.Where
}

func TestEstimateErrors(t *testing.T) {
	e := estimator()
	if _, err := e.Estimate(algebra.Scan("NOPE", "")); err == nil {
		t.Error("missing table should error")
	}
	bad := algebra.TAggr(algebra.ProjectCols(algebra.Scan("EMPLOYEE", ""), "EmpID"), nil)
	if _, err := e.Estimate(bad); err == nil {
		t.Error("taggr without T1/T2 should error via schema derivation")
	}
}

func TestSelectivityWithoutColumnStats(t *testing.T) {
	e := &Estimator{Mode: ModeSemantic}
	in := &RelStats{Card: 1000, Cols: map[string]*meta.ColumnStats{}}
	sel, _ := sqlparser.ParseSelect("SELECT 1 WHERE Foo = 3 AND T1 < 10 AND T2 > 5")
	s := e.Selectivity(sel.Where, in)
	if s <= 0 || s > 1 {
		t.Errorf("selectivity without stats must stay in (0,1]: %g", s)
	}
}

func TestOverlapProbabilityBounds(t *testing.T) {
	// Degenerate stats must not panic and must stay in [1e-6, 1].
	empty := &RelStats{Card: 10, Cols: map[string]*meta.ColumnStats{}}
	if p := overlapProbability(empty, empty); p != 0.1 {
		t.Errorf("no time stats should use the default: %g", p)
	}
	wide := &RelStats{Card: 10, Cols: map[string]*meta.ColumnStats{
		"T1": {Name: "T1", Min: types.Int(0), Max: types.Int(10)},
		"T2": {Name: "T2", Min: types.Int(1000), Max: types.Int(2000)},
	}}
	if p := overlapProbability(wide, wide); p > 1 || p < 1e-6 {
		t.Errorf("overlap probability out of bounds: %g", p)
	}
}
