package tango

import (
	"strings"
	"testing"

	"tango/internal/algebra"
	"tango/internal/engine"
	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/stats"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/uis"
	"tango/internal/wire"
)

// openMW builds a middleware over a small POSITION relation.
func openMW(t *testing.T) *Middleware {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	mw := Open(srv, Options{HistogramBuckets: 8})
	mustExec := func(sql string) {
		t.Helper()
		if _, err := mw.Conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)")
	mustExec(`INSERT INTO POSITION VALUES
		(1,'Tom',12.0,2,20),(1,'Jane',9.0,5,25),(2,'Tom',12.0,5,10),
		(2,'Ann',11.0,10,15),(3,'Bob',8.0,1,30)`)
	return mw
}

func TestMiddlewareRunEndToEnd(t *testing.T) {
	mw := openMW(t)
	plan, err := tsql.Parse(`VALIDTIME SELECT PosID, COUNT(PosID)
		FROM POSITION GROUP BY PosID ORDER BY PosID`, mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := mw.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() == 0 {
		t.Fatal("empty result")
	}
	if res.Classes <= 0 || res.Best == nil {
		t.Fatalf("optimizer report incomplete: %+v", res)
	}
	// The chosen plan must execute the aggregation in the middleware.
	mwAggr := false
	res.Best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpTAggr && n.Loc() == algebra.LocMW {
			mwAggr = true
		}
	})
	if !mwAggr {
		t.Errorf("TAGGR not moved to middleware:\n%s", res.Best)
	}
}

func TestMiddlewareAdaptsFactors(t *testing.T) {
	mw := openMW(t)
	before := mw.Model.F.TM
	plan, err := tsql.Parse("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID", mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw.Run(plan); err != nil {
		t.Fatal(err)
	}
	if mw.Model.F.TM == before {
		t.Error("transfer factor did not adapt from feedback")
	}
}

// TestAbsorbObservesEachTransferOnce: a T^M or T^D moves its factor
// once, from its whole-transfer feedback; absorb's operator walk does
// not observe the transfer nodes a second time.
func TestAbsorbObservesEachTransferOnce(t *testing.T) {
	mw := openMW(t)
	ex := &Executor{Conn: mw.Conn, Cat: mw.Cat, Analyze: true}
	if _, err := ex.Run(paperPlanMWAggr()); err != nil {
		t.Fatal(err)
	}
	if len(ex.transfersM) == 0 || len(ex.transfersD) == 0 {
		t.Fatalf("plan ran %d T^M and %d T^D, want both", len(ex.transfersM), len(ex.transfersD))
	}
	want := mw.Model.F
	for _, tr := range ex.transfersM {
		want.Observe(transferObs(tr.node, tr.Feedback()))
	}
	for _, tr := range ex.transfersD {
		want.Observe(transferObs(tr.node, tr.Feedback()))
	}
	mw.absorb(ex, nil, nil)
	if got := mw.Model.F; got.TM != want.TM || got.TD != want.TD {
		t.Errorf("TM, TD = %g, %g after absorb; want %g, %g from the transfers' feedback alone", got.TM, got.TD, want.TM, want.TD)
	}
}

func TestMiddlewareCalibrate(t *testing.T) {
	mw := openMW(t)
	def := mw.Model.F
	if err := mw.Calibrate(1500); err != nil {
		t.Fatal(err)
	}
	if mw.Model.F == def {
		t.Error("calibration left default factors")
	}
	if mw.Model.F.TM <= 0 || mw.Model.F.TAggrD1 <= 0 {
		t.Errorf("bad calibrated factors: %+v", mw.Model.F)
	}
}

func TestMiddlewareExplain(t *testing.T) {
	mw := openMW(t)
	plan, err := tsql.Parse("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID", mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mw.Explain(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cost", "classes", "TAGGR"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestCoalesceQueryEndToEnd(t *testing.T) {
	mw := openMW(t)
	// Tom holds position 9 over two meeting periods: coalescing must
	// merge them into one row.
	if _, err := mw.Conn.Exec(
		"INSERT INTO POSITION VALUES (9,'Tom',10.0,1,5),(9,'Tom',10.0,5,9)"); err != nil {
		t.Fatal(err)
	}
	sel, err := tsql.Parse(`VALIDTIME COALESCE SELECT PosID, EmpName, T1, T2
		FROM POSITION WHERE PosID = 9 ORDER BY T1`, mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	out, res, err := mw.Run(sel)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 1 {
		t.Fatalf("coalesce result:\n%v\nplan:\n%s", out, res.Best)
	}
	row := out.Tuples[0]
	t1 := out.Schema.MustIndex("T1")
	t2 := out.Schema.MustIndex("T2")
	if row[t1].AsInt() != 1 || row[t2].AsInt() != 9 {
		t.Errorf("merged period = [%v, %v), want [1, 9)", row[t1], row[t2])
	}
	// The coalescing must have been moved into the middleware.
	mwCoal := false
	res.Best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpCoalesce && n.Loc() == algebra.LocMW {
			mwCoal = true
		}
	})
	if !mwCoal {
		t.Errorf("coalesce not in middleware:\n%s", res.Best)
	}
}

func TestDupElimMovable(t *testing.T) {
	mw := openMW(t)
	plan := algebra.TM(algebra.DupElim(
		algebra.ProjectCols(algebra.Scan("POSITION", ""), "EmpName")))
	res, err := mw.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Both locations must appear among the candidates.
	locs := map[algebra.Location]bool{}
	for _, c := range res.Candidates {
		c.Plan.Walk(func(n *algebra.Node) {
			if n.Op == algebra.OpDupElim {
				locs[n.Loc()] = true
			}
		})
	}
	if !locs[algebra.LocDBMS] || !locs[algebra.LocMW] {
		t.Errorf("dupelim should be considered on both sides: %v", locs)
	}
	out, err := mw.Execute(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 4 { // Tom, Jane, Ann, Bob
		t.Errorf("distinct names = %d\n%v", out.Cardinality(), out)
	}
}

// TestEstimateAfterReanalyze: the middleware's statistics are read
// afresh per optimization, so ANALYZE after a load changes the estimate
// (a plan-keyed estimate cache once kept reporting the first load).
func TestEstimateAfterReanalyze(t *testing.T) {
	mw := Open(server.New(engine.Open(engine.Config{}), wire.Latency{}), Options{HistogramBuckets: 8})
	if err := mw.Conn.CreateTable("POSITION", uis.PositionSchema()); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rows := range []int{100, 1000} {
		if _, err := mw.Conn.Load("POSITION", (&uis.Generator{Seed: int64(rows)}).Positions(rows)); err != nil {
			t.Fatal(err)
		}
		if _, err := mw.Conn.Exec("ANALYZE POSITION"); err != nil {
			t.Fatal(err)
		}
		total += rows
		est, err := mw.Est.Estimate(algebra.Scan("POSITION", ""))
		if err != nil {
			t.Fatal(err)
		}
		if est.Card != float64(total) {
			t.Errorf("after loading %d rows and ANALYZE the estimate is %g rows", total, est.Card)
		}
	}
}

// countingCatalog counts, per table, the schema and statistics fetches
// that reach it.
type countingCatalog struct {
	cat     algebra.Catalog
	src     stats.Source
	schemas map[string]int
	tables  map[string]int
}

func (c *countingCatalog) TableSchema(name string) (types.Schema, error) {
	c.schemas[strings.ToUpper(name)]++
	return c.cat.TableSchema(name)
}

func (c *countingCatalog) TableStats(name string, buckets int) (*meta.TableStats, error) {
	c.tables[strings.ToUpper(name)]++
	return c.src.TableStats(name, buckets)
}

// TestQueryReadsCatalogOnce: one query — optimization, plan checks,
// build, execution and the Q-error feedback — fetches each base
// table's schema and statistics once, all through the optimizer's
// view of the catalog, and the next query's view asks again. Whether
// that reaches the DBMS is the connection's business: it answers from
// its metadata cache until the DBMS's metadata epoch moves
// (TestMetadataFetchedOncePerEpoch).
func TestQueryReadsCatalogOnce(t *testing.T) {
	mw := Open(server.New(engine.Open(engine.Config{}), wire.Latency{}),
		Options{HistogramBuckets: 8, Metrics: telemetry.NewRegistry(), CheckPlans: true})
	if _, err := uis.Load(mw.Conn, 300, 100, 8); err != nil {
		t.Fatal(err)
	}
	queries := map[string][]string{
		"VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID":                                  {"POSITION"},
		"VALIDTIME COALESCE SELECT PosID, EmpName, T1, T2 FROM POSITION":                                     {"POSITION"},
		"VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B WHERE A.PosID = B.PosID": {"POSITION"},
		"SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID":                      {"POSITION", "EMPLOYEE"},
	}
	plans := map[string]*algebra.Node{}
	for q := range queries {
		plan, err := tsql.Parse(q, mw.Cat)
		if err != nil {
			t.Fatal(err)
		}
		plans[q] = plan
	}
	viewed := &countingCatalog{cat: mw.Est.Cat, src: mw.Est.Source}
	mw.Est.Cat, mw.Est.Source = viewed, viewed
	direct := &countingCatalog{cat: mw.Cat}
	mw.Cat = direct
	run := map[string]func(*algebra.Node) error{
		"Run":            func(p *algebra.Node) error { _, _, err := mw.Run(p); return err },
		"ExplainAnalyze": func(p *algebra.Node) error { _, _, err := mw.ExplainAnalyze(p); return err },
		"Explain":        func(p *algebra.Node) error { _, err := mw.Explain(p); return err },
	}
	for q, tables := range queries {
		for name, f := range run {
			for round := range 2 {
				viewed.schemas, viewed.tables = map[string]int{}, map[string]int{}
				direct.schemas = map[string]int{}
				if err := f(plans[q]); err != nil {
					t.Fatalf("%s %q: %v", name, q, err)
				}
				for _, table := range tables {
					if s, st := viewed.schemas[table], viewed.tables[table]; s != 1 || st != 1 {
						t.Errorf("%s %q, round %d: %s schema fetched %d times, statistics %d times; want once each",
							name, q, round, table, s, st)
					}
				}
				if len(direct.schemas) != 0 {
					t.Errorf("%s %q: schemas fetched past the query's catalog view: %v", name, q, direct.schemas)
				}
			}
		}
	}
}
