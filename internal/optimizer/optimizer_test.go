package optimizer

import (
	"strings"
	"testing"

	"tango/internal/algebra"
	"tango/internal/cost"
	"tango/internal/meta"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/stats"
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

func testCatalog() fixedCatalog {
	return fixedCatalog{
		"POSITION": types.NewSchema(
			types.Column{Name: "PosID", Kind: types.KindInt},
			types.Column{Name: "EmpName", Kind: types.KindString},
			types.Column{Name: "PayRate", Kind: types.KindFloat},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
		),
	}
}

func testSource() fixedSource {
	return fixedSource{
		"POSITION": {
			Table: "POSITION", Cardinality: 80000, AvgTupleSize: 60, Blocks: 600,
			Columns: map[string]*meta.ColumnStats{
				"POSID":   {Name: "PosID", Distinct: 2000, Min: types.Int(1), Max: types.Int(2000)},
				"PAYRATE": {Name: "PayRate", Distinct: 50, Min: types.Float(5), Max: types.Float(60)},
				"T1":      {Name: "T1", Distinct: 5000, Min: types.Int(4000), Max: types.Int(11000)},
				"T2":      {Name: "T2", Distinct: 5000, Min: types.Int(4100), Max: types.Int(11300)},
			},
		},
	}
}

// schemaIn resolves subtree schemas against a catalog, as rules see
// them outside a memo.
func schemaIn(cat algebra.Catalog) schemaOf {
	return func(n *algebra.Node) (types.Schema, error) { return n.Schema(cat) }
}

func testModel() *cost.Model {
	return cost.NewModel(stats.NewEstimator(testCatalog(), testSource()))
}

// query1Initial is the paper's Query 1 initial plan: temporal
// aggregation entirely in the DBMS with a T^M on top.
func query1Initial() *algebra.Node {
	proj := algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2")
	taggr := algebra.TAggr(proj, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	return algebra.TM(algebra.Sort(taggr, "PosID"))
}

func TestOptimizeQuery1MovesAggregationToMiddleware(t *testing.T) {
	res, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best plan")
	}
	// The chosen plan must run TAGGR in the middleware: the paper's
	// Figure 8 shows the DBMS variant is ~10x slower, and the default
	// cost factors encode that.
	foundMWAggr := false
	res.Best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpTAggr && n.Loc() == algebra.LocMW {
			foundMWAggr = true
		}
	})
	if !foundMWAggr {
		t.Errorf("best plan keeps TAGGR in the DBMS:\n%s", res.Best)
	}
	if err := res.Best.Validate(); err != nil {
		t.Errorf("best plan invalid: %v", err)
	}
	if res.Classes <= 0 || res.Elements < res.Classes {
		t.Errorf("memo accounting: %d classes, %d elements", res.Classes, res.Elements)
	}
	if len(res.Candidates) < 3 {
		t.Errorf("expected several candidates, got %d", len(res.Candidates))
	}
	// Candidates are sorted by cost.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Cost < res.Candidates[i-1].Cost {
			t.Fatal("candidates not sorted")
		}
	}
}

// TestStratumPlanAmongCandidates: the all-DBMS class's winner — the
// stratum-style plan, Query 1 with every operator left in the DBMS
// under the root T^M — is always among the candidates.
func TestStratumPlanAmongCandidates(t *testing.T) {
	res, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	stratum := func(p *algebra.Node) bool {
		ok := p.Op == algebra.OpTM
		p.Left.Walk(func(n *algebra.Node) {
			if n.Loc() == algebra.LocMW || n.Op == algebra.OpTD {
				ok = false
			}
		})
		return ok
	}
	for _, c := range res.Candidates {
		if stratum(c.Plan) {
			return
		}
	}
	t.Errorf("no stratum-style plan among %d candidates", len(res.Candidates))
}

// TestSortEnforcerPlacementClass: a sort enforcer in a middleware
// group (SORT^M) keeps a plan out of the all-DBMS class, so when SORT^D
// is priced far above SORT^M, Query 1 (ORDER BY PosID) still has its
// stratum plan, ordered by SORT^D below the root T^M, among the
// candidates. The root T^M's own completion runs the aggregation in
// the middleware, so only the all-DBMS goal yields that plan.
func TestSortEnforcerPlacementClass(t *testing.T) {
	model := testModel()
	model.F.SortD = 1000 * model.F.SortM
	res, err := Optimize(model, query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		mw := 0
		c.Plan.Walk(func(n *algebra.Node) {
			if n.Loc() == algebra.LocMW || n.Op == algebra.OpTD {
				mw++
			}
		})
		if c.Plan.Op == algebra.OpTM && mw == 1 {
			return
		}
	}
	t.Errorf("no plan whose only middleware operator is the root T^M among %d candidates", len(res.Candidates))
}

func TestSortEliminatedWhenOrderSatisfied(t *testing.T) {
	// TAGGR^M delivers (PosID, T1) order, so the top sort on PosID is
	// redundant in the middleware plan and the optimizer must not
	// enforce it again.
	res, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	sortCount := 0
	best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpSort && n.Loc() == algebra.LocMW {
			sortCount++
		}
	})
	if sortCount > 0 {
		t.Errorf("best plan has %d middleware sorts; TAGGR^M already delivers the order:\n%s", sortCount, best)
	}
}

func TestOrderComputation(t *testing.T) {
	model := testModel()
	m := newMemo(model.Est.Snapshot(), model)
	aggr := algebra.TAggr(algebra.TM(algebra.Scan("POSITION", "")), []string{"PosID"},
		algebra.Agg{Fn: "COUNT", Col: "PosID"})
	g := m.insert(algebra.TD(aggr), -1)
	td := m.groups[g].exprs[0]
	taggr := m.groups[td.kids[0]].exprs[0]
	tm := m.groups[taggr.kids[0]].exprs[0]
	scan := m.groups[tm.kids[0]].exprs[0]
	orders := func(e *mexpr, order ...string) ([][]string, bool) { return m.inputOrders(e, order) }

	// TAGGR^M needs (PosID, T1) and delivers it, so it satisfies any
	// prefix of it.
	if in, ok := orders(taggr, "PosID"); !ok || !isPrefixOf([]string{"PosID", "T1"}, in[0]) || len(in[0]) != 2 {
		t.Errorf("TAGGR^M under order PosID: %v %v", in, ok)
	}
	if _, ok := orders(taggr, "T1"); ok {
		t.Error("TAGGR^M cannot deliver order T1")
	}
	// T^M passes the order down: a sort below it lands in the SQL.
	if in, ok := orders(tm, "PosID", "T1"); !ok || len(in[0]) != 2 {
		t.Errorf("T^M should pass its order to the DBMS: %v %v", in, ok)
	}
	// DBMS operators and T^D promise no order.
	for _, e := range []*mexpr{scan, td} {
		if _, ok := orders(e, "PosID"); ok {
			t.Errorf("%v delivered an order", e.n.Op)
		}
		if _, ok := orders(e); !ok {
			t.Errorf("%v refused to run unordered", e.n.Op)
		}
	}
	// A middleware projection renames the order it passes down.
	m2 := newMemo(model.Est.Snapshot(), model)
	pg := m2.insert(algebra.Project(algebra.TM(algebra.Scan("POSITION", "A")),
		algebra.ProjCol{Src: "A.PosID", As: "P"}), -1)
	if in, ok := m2.inputOrders(m2.groups[pg].exprs[0], []string{"P"}); !ok || in[0][0] != "A.PosID" {
		t.Errorf("projection order: %v %v", in, ok)
	}
}

func TestRuleT7T8Collapse(t *testing.T) {
	scan := algebra.Scan("POSITION", "")
	tmtd := algebra.TM(algebra.TD(algebra.TM(scan)))
	if out := ruleT7(tmtd); len(out) != 1 || out[0].Op != algebra.OpTM {
		t.Errorf("T7: %v", out)
	}
	tdtm := algebra.TD(algebra.TM(scan))
	if out := ruleT8(tdtm); len(out) != 1 || out[0].Op != algebra.OpScan {
		t.Errorf("T8: %v", out)
	}
}

func TestRuleT1Shape(t *testing.T) {
	taggr := algebra.TAggr(algebra.Scan("POSITION", ""), []string{"PosID"},
		algebra.Agg{Fn: "COUNT", Col: "PosID"})
	out := ruleT1(taggr)
	if len(out) != 1 {
		t.Fatalf("T1 fired %d times", len(out))
	}
	p := out[0]
	// Shape: TD(TAggr(TM(scan))); the sort TAGGR^M needs is enforced
	// during the search (TestOrderComputation).
	if p.Op != algebra.OpTD || p.Left.Op != algebra.OpTAggr ||
		p.Left.Left.Op != algebra.OpTM || p.Left.Left.Left.Op != algebra.OpScan {
		t.Fatalf("T1 shape:\n%s", p)
	}
	// T1 must not fire on a middleware-resident aggregation.
	mwAggr := algebra.TAggr(algebra.TM(algebra.Scan("POSITION", "")), []string{"PosID"})
	if out := ruleT1(mwAggr); out != nil {
		t.Error("T1 fired on MW-resident TAggr")
	}
}

func TestRuleE2Commute(t *testing.T) {
	rule := joinCommute(schemaIn(testCatalog()))
	j := algebra.Join(algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	out := rule(j)
	if len(out) != 1 {
		t.Fatalf("E2 fired %d times", len(out))
	}
	// Shape: Project restoring order over the swapped join.
	p := out[0]
	if p.Op != algebra.OpProject || p.Left.Op != algebra.OpJoin {
		t.Fatalf("E2 shape:\n%s", p)
	}
	if p.Left.Left.Alias != "B" || p.Left.LeftCols[0] != "B.PosID" {
		t.Errorf("E2 swap wrong: %+v", p.Left)
	}
	// Schemas must agree exactly.
	s1, err := j.Schema(testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Schema(testCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Errorf("E2 changes schema: %v vs %v", s1.Names(), s2.Names())
	}
	// An unaliased self-join (colliding names) must be skipped.
	selfJoin := algebra.Join(algebra.Scan("POSITION", ""), algebra.Scan("POSITION", ""),
		[]string{"PosID"}, []string{"PosID"})
	if out := rule(selfJoin); out != nil {
		t.Error("E2 fired on colliding column names")
	}
}

func TestSelectPushdownBelowJoin(t *testing.T) {
	cat := testCatalog()
	rule := selectBelowJoin(schemaIn(cat))
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE B.PayRate > 10")
	if err != nil {
		t.Fatal(err)
	}
	j := algebra.TJoin(
		algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2"),
		algebra.Scan("POSITION", "B"),
		[]string{"A.PosID"}, []string{"B.PosID"})
	n := algebra.Select(j, sel.Where)
	out := rule(n)
	if len(out) != 1 {
		t.Fatalf("pushdown fired %d times", len(out))
	}
	if out[0].Op != algebra.OpTJoin || out[0].Right.Op != algebra.OpSelect {
		t.Errorf("pushdown shape:\n%s", out[0])
	}
	// Predicates over the intersected period must not move.
	sel2, _ := sqlparser.ParseSelect("SELECT 1 WHERE T1 < 100")
	n2 := algebra.Select(j, sel2.Where)
	if out := rule(n2); out != nil {
		t.Error("time predicate pushed below temporal join")
	}
}

func TestRenamePredRoundTrip(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("SELECT 1 WHERE A.PayRate > 10")
	cols := []algebra.ProjCol{{Src: "A.PayRate", As: "Rate"}, {Src: "A.PosID"}}
	renamed := renamePred(sel.Where, cols)
	if !strings.Contains(renamed.String(), "Rate") {
		t.Errorf("rename failed: %s", renamed)
	}
	back, ok := unrenamePred(renamed, cols)
	if !ok || !strings.Contains(back.String(), "A.PayRate") {
		t.Errorf("unrename failed: %v %v", back, ok)
	}
	// A predicate referencing a non-output cannot be unrenamed.
	sel3, _ := sqlparser.ParseSelect("SELECT 1 WHERE Missing > 1")
	if _, ok := unrenamePred(sel3.Where, cols); ok {
		t.Error("unrename should fail on missing column")
	}
	_ = sqlast.Expr(nil)
}

func TestMemoAccountingGrows(t *testing.T) {
	simple := algebra.TM(algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID"))
	res1, err := Optimize(testModel(), simple)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Elements <= res1.Elements {
		t.Errorf("richer query should have more elements: %d vs %d", res2.Elements, res1.Elements)
	}
}

func TestCandidatesAllExecutableShapes(t *testing.T) {
	res, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if err := c.Plan.Validate(); err != nil {
			t.Errorf("candidate invalid: %v\n%s", err, c.Plan)
		}
		if c.Plan.Loc() != algebra.LocMW {
			t.Errorf("candidate root not in middleware:\n%s", c.Plan)
		}
	}
}

func TestOptimizationDeterministic(t *testing.T) {
	keys := map[string]bool{}
	for i := 0; i < 3; i++ {
		res, err := Optimize(testModel(), query1Initial())
		if err != nil {
			t.Fatal(err)
		}
		keys[res.Best.Key()] = true
	}
	if len(keys) != 1 {
		t.Errorf("optimization not deterministic: %d distinct best plans", len(keys))
	}
}

// TestCatalogTrafficPerOptimize: each Node.Schema or statistics lookup
// used to reach the catalog — over TCP, one wire round trip each. An
// optimization now reads each distinct base table's schema and
// statistics at most once, however many scans and rewrites touch it.
func TestCatalogTrafficPerOptimize(t *testing.T) {
	cat, src := testCatalog(), testSource()
	cat["EMPLOYEE"] = types.NewSchema(
		types.Column{Name: "EmpID", Kind: types.KindInt},
		types.Column{Name: "PosID", Kind: types.KindInt})
	src["EMPLOYEE"] = &meta.TableStats{Table: "EMPLOYEE", Cardinality: 500, AvgTupleSize: 16,
		Columns: map[string]*meta.ColumnStats{"POSID": {Name: "PosID", Distinct: 400}}}
	schemas, tables := map[string]int{}, map[string]int{}
	counted := countingCatalog{cat, schemas}
	model := cost.NewModel(stats.NewEstimator(counted, countingSource{src, tables}))
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE B.PayRate > 10")
	if err != nil {
		t.Fatal(err)
	}
	plans := []*algebra.Node{
		query1Initial(),
		algebra.TM(algebra.Select(algebra.TJoin(
			algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2"),
			algebra.Scan("POSITION", "B"), []string{"A.PosID"}, []string{"B.PosID"}), sel.Where)),
		algebra.TM(algebra.Join(algebra.Scan("POSITION", "P"), algebra.Scan("EMPLOYEE", "E"),
			[]string{"P.PosID"}, []string{"E.PosID"})),
	}
	for _, p := range plans {
		clear(schemas)
		clear(tables)
		if _, err := Optimize(model, p); err != nil {
			t.Fatal(err)
		}
		for _, m := range []map[string]int{schemas, tables} {
			for table, n := range m {
				if n > 1 {
					t.Errorf("%s fetched %d times in one optimization (schemas %v, statistics %v):\n%s",
						table, n, schemas, tables, p)
				}
			}
		}
	}
}

type countingCatalog struct {
	fixedCatalog
	n map[string]int
}

func (c countingCatalog) TableSchema(name string) (types.Schema, error) {
	c.n[strings.ToUpper(name)]++
	return c.fixedCatalog.TableSchema(name)
}

type countingSource struct {
	fixedSource
	n map[string]int
}

func (s countingSource) TableStats(table string, buckets int) (*meta.TableStats, error) {
	s.n[strings.ToUpper(table)]++
	return s.fixedSource.TableStats(table, buckets)
}

// TestSearchTerminatesOnCommutingJoins: E2 commutes a join in both
// directions, each time under a restoring projection, which made the
// whole-plan search infinite (it stopped at a plan cap). In the memo
// the two orientations are two groups that refer to each other, so the
// search ends on its own with both join placements among the
// candidates.
func TestSearchTerminatesOnCommutingJoins(t *testing.T) {
	initial := algebra.TM(algebra.Join(
		algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.PayRate"),
		algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName"),
		[]string{"A.PosID"}, []string{"B.PosID"}))
	res, err := Optimize(testModel(), initial)
	if err != nil {
		t.Fatal(err)
	}
	if res.RulesFired["E2-join-commute"] == 0 {
		t.Errorf("E2 never fired: %v", res.RulesFired)
	}
	locs := map[algebra.Location]bool{}
	for _, c := range res.Candidates {
		c.Plan.Walk(func(n *algebra.Node) {
			if n.Op == algebra.OpJoin {
				locs[n.Loc()] = true
			}
		})
	}
	if !locs[algebra.LocDBMS] || !locs[algebra.LocMW] {
		t.Errorf("join placements among %d candidates: %v", len(res.Candidates), locs)
	}
	if res.Classes > 100 || res.Elements > 300 {
		t.Errorf("memo of a two-way join: %d classes, %d elements", res.Classes, res.Elements)
	}
}

// TestCandidateCostsArePlanCosts: the memo prices each expression once,
// from its group's statistics and its inputs' cheapest plans; pricing
// each extracted candidate whole (cost.Model.PlanCost, the reference)
// must give the same number.
func TestCandidateCostsArePlanCosts(t *testing.T) {
	model := testModel()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE B.PayRate > 10 AND B.T1 < 9000")
	if err != nil {
		t.Fatal(err)
	}
	for _, initial := range []*algebra.Node{
		query1Initial(),
		algebra.TM(algebra.Sort(algebra.Select(algebra.TJoin(
			algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2"),
			algebra.Scan("POSITION", "B"), []string{"A.PosID"}, []string{"B.PosID"}), sel.Where), "A.PosID")),
		algebra.TM(algebra.Join(algebra.Scan("POSITION", "A"), algebra.Scan("POSITION", "B"),
			[]string{"A.PosID"}, []string{"B.PosID"})),
	} {
		res, err := Optimize(model, initial)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			want, err := model.PlanCost(c.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if diff := c.Cost - want; diff > 1e-9*want || -diff > 1e-9*want {
				t.Errorf("memo priced %v, the plan costs %v:\n%s", c.Cost, want, c.Plan)
			}
		}
	}
}
