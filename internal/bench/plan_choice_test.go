package bench

import (
	"math"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/planck"
	"tango/internal/tsql"
)

// planChoiceGolden pins what the optimizer chooses, at the default cost
// factors, over 600 POSITION / 200 EMPLOYEE rows with 10-bucket
// histograms: the paper's four queries plus the tsql statements of the
// tangobench workloads (first literal). Where the whole plan space was
// searched when the pin was taken, the chosen plan (Key) and its cost
// are pinned exactly, and so are the cheapest candidates without a T^D
// and all-DBMS (the fallback plans); where the search was truncated
// (Key == ""), the pinned cost is an upper bound the optimizer must not
// exceed.
var planChoiceGolden = []struct {
	name          string
	sql           string               // tsql statement; "" for the bench initial plans
	plan          func() *algebra.Node // used when sql == ""
	key           string
	cost          float64
	noTD, allDBMS pin // when key != ""; a zero pin: no candidate lies in the class
}{
	{name: "Q1", plan: Q1Initial,
		key:     "TAggr[POSID;COUNT(POSID)](TM(Sort[POSID,T1](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION )))))",
		cost:    796.1790648321323,
		noTD:    pin{"TAggr[POSID;COUNT(POSID)](TM(Sort[POSID,T1](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION )))))", 796.1790648321323},
		allDBMS: pin{"TM(Sort[POSID](TAggr[POSID;COUNT(POSID)](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION )))))", 6647.375347404193}},
	// The truncated search found 334.19 by taking TJOIN^M's output as
	// ordered on the left input's T1, which the join replaces by the
	// intersected period; the bound is the cheapest plan that sorts above
	// the join instead.
	{name: "Q2", plan: func() *algebra.Node { return Q2Initial(Day(1990, time.January, 1)) },
		cost: 337.1274900218226},
	{name: "Q3", plan: func() *algebra.Node { return Q3Initial(Day(1990, time.January, 1)) },
		cost: 230.7945423337426},
	{name: "Q4", plan: Q4Initial, cost: 499.0882099328859},
	{name: "taggr", sql: "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID",
		key:     "Project[POSID>POSID,COUNTOFPOSID>COUNTOFPOSID,T1>T1,T2>T2](TAggr[POSID;COUNT(POSID)](TM(Sort[POSID,T1](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION ))))))",
		cost:    796.1790648321323,
		noTD:    pin{"Project[POSID>POSID,COUNTOFPOSID>COUNTOFPOSID,T1>T1,T2>T2](TAggr[POSID;COUNT(POSID)](TM(Sort[POSID,T1](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION ))))))", 796.1790648321323},
		allDBMS: pin{"TM(Project[POSID>POSID,COUNTOFPOSID>COUNTOFPOSID,T1>T1,T2>T2](TAggr[POSID;COUNT(POSID)](Project[POSID>POSID,T1>T1,T2>T2](Scan(POSITION )))))", 6468.542}},
	{name: "tjoin", sql: "VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B " +
		"WHERE A.PosID = B.PosID AND A.T1 < DATE '1986-01-01' AND B.T1 < DATE '1986-01-01'",
		key:     "TM(Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B)))))",
		cost:    226.57173560118164,
		noTD:    pin{"TM(Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B)))))", 226.57173560118164},
		allDBMS: pin{"TM(Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B)))))", 226.57173560118164}},
	{name: "coalesce", sql: "VALIDTIME COALESCE SELECT PosID, EmpName, T1, T2 FROM POSITION",
		key:     "Coalesce(TM(Sort[POSID,EMPNAME,T1](Project[POSID>POSID,EMPNAME>EMPNAME,T1>T1,T2>T2](Scan(POSITION )))))",
		cost:    715.4287760961212,
		noTD:    pin{"Coalesce(TM(Sort[POSID,EMPNAME,T1](Project[POSID>POSID,EMPNAME>EMPNAME,T1>T1,T2>T2](Scan(POSITION )))))", 715.4287760961212},
		allDBMS: pin{}}, // coalescing has no SQL, so no plan is all-DBMS
	{name: "sel_taggr", sql: "VALIDTIME SELECT B.PosID, B.EmpName, COUNT(B.PosID) FROM POSITION B " +
		"WHERE B.PayRate > 10 AND B.T1 < DATE '1985-01-01' AND B.T2 > DATE '1983-01-01' GROUP BY B.PosID ORDER BY B.PosID",
		key:     "TAggr[B.POSID;COUNT(B.POSID)](TM(Sort[B.POSID,T1](Project[B.POSID>B.POSID,B.T1>B.T1,B.T2>B.T2](Select[(((B.PAYRATE > 10) AND (B.T1 < DATE '1985-01-01')) AND (B.T2 > DATE '1983-01-01'))](Scan(POSITION B))))))",
		cost:    117.66332245854508,
		noTD:    pin{"TAggr[B.POSID;COUNT(B.POSID)](TM(Sort[B.POSID,T1](Project[B.POSID>B.POSID,B.T1>B.T1,B.T2>B.T2](Select[(((B.PAYRATE > 10) AND (B.T1 < DATE '1985-01-01')) AND (B.T2 > DATE '1983-01-01'))](Scan(POSITION B))))))", 117.66332245854508},
		allDBMS: pin{"TM(TAggr[B.POSID;COUNT(B.POSID)](Project[B.POSID>B.POSID,B.T1>B.T1,B.T2>B.T2](Select[(((B.PAYRATE > 10) AND (B.T1 < DATE '1985-01-01')) AND (B.T2 > DATE '1983-01-01'))](Scan(POSITION B)))))", 387.6744919497848}},
	{name: "tjoin_ordered", sql: "VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B " +
		"WHERE A.PosID = B.PosID AND A.T1 < DATE '1986-01-01' AND B.T1 < DATE '1986-01-01' ORDER BY A.PosID",
		key:     "TM(Sort[POSID](Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B))))))",
		cost:    228.21980835444637,
		noTD:    pin{"TM(Sort[POSID](Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B))))))", 228.21980835444637},
		allDBMS: pin{"TM(Sort[POSID](Project[A.POSID>POSID,A.EMPNAME>EMPNAME,B.EMPNAME>EMPNAME](TJoin[A.POSID=B.POSID](Select[(A.T1 < DATE '1986-01-01')](Scan(POSITION A)),Select[(B.T1 < DATE '1986-01-01')](Scan(POSITION B))))))", 228.21980835444637}},
	{name: "join", sql: "SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID",
		cost: 1153.466644295302},
	{name: "join_ordered_right", sql: "SELECT P.EmpID, E.Addr FROM POSITION P, EMPLOYEE E " +
		"WHERE P.EmpID = E.EmpID ORDER BY P.EmpID, E.Addr",
		cost: 1127.3193500118457},
	// SORT^M over the transfer costs the same as this SORT^D below it (to
	// rounding); the tie goes to the initial plan's shape.
	{name: "tjoin_ordered_period", plan: func() *algebra.Node {
		a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.EmpName", "A.T1", "A.T2")
		b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
		return algebra.TM(algebra.Sort(algebra.TJoin(a, b, []string{"A.PosID"}, []string{"B.PosID"}), "A.PosID", "A.T1"))
	},
		key:     "TM(Sort[A.POSID,A.T1](TJoin[A.POSID=B.POSID](Project[A.POSID>A.POSID,A.EMPNAME>A.EMPNAME,A.T1>A.T1,A.T2>A.T2](Scan(POSITION A)),Project[B.POSID>B.POSID,B.EMPNAME>B.EMPNAME,B.T1>B.T1,B.T2>B.T2](Scan(POSITION B)))))",
		cost:    1000.7414012587237,
		noTD:    pin{"TM(Sort[A.POSID,A.T1](TJoin[A.POSID=B.POSID](Project[A.POSID>A.POSID,A.EMPNAME>A.EMPNAME,A.T1>A.T1,A.T2>A.T2](Scan(POSITION A)),Project[B.POSID>B.POSID,B.EMPNAME>B.EMPNAME,B.T1>B.T1,B.T2>B.T2](Scan(POSITION B)))))", 1000.7414012587238},
		allDBMS: pin{"TM(Sort[A.POSID,A.T1](TJoin[A.POSID=B.POSID](Project[A.POSID>A.POSID,A.EMPNAME>A.EMPNAME,A.T1>A.T1,A.T2>A.T2](Scan(POSITION A)),Project[B.POSID>B.POSID,B.EMPNAME>B.EMPNAME,B.T1>B.T1,B.T2>B.T2](Scan(POSITION B)))))", 1000.7414012587238}},
	{name: "asof", sql: "VALIDTIME AS OF DATE '1996-06-01' SELECT PosID, EmpName FROM POSITION WHERE PayRate > 10",
		key:     "TM(Project[POSID>POSID,EMPNAME>EMPNAME](Select[(PAYRATE > 10)](Select[((T1 <= DATE '1996-06-01') AND (T2 > DATE '1996-06-01'))](Scan(POSITION )))))",
		cost:    143.43956989007665,
		noTD:    pin{"TM(Project[POSID>POSID,EMPNAME>EMPNAME](Select[(PAYRATE > 10)](Select[((T1 <= DATE '1996-06-01') AND (T2 > DATE '1996-06-01'))](Scan(POSITION )))))", 143.43956989007665},
		allDBMS: pin{"TM(Project[POSID>POSID,EMPNAME>EMPNAME](Select[(PAYRATE > 10)](Select[((T1 <= DATE '1996-06-01') AND (T2 > DATE '1996-06-01'))](Scan(POSITION )))))", 143.43956989007665}},
}

// TestPlanChoiceGolden guards the optimizer's search against silent
// changes of choice: a rewrite of the search may make it faster or
// finite, but wherever the old search was complete it must pick the
// same plan at the same estimated cost, and elsewhere it must find a
// plan at least as cheap.
func TestPlanChoiceGolden(t *testing.T) {
	sys, err := NewSystem(Config{PositionRows: 600, EmployeeRows: 200, Histograms: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range planChoiceGolden {
		initial := g.plan
		if g.sql != "" {
			initial = func() *algebra.Node {
				p, err := tsql.Parse(g.sql, sys.MW.Cat)
				if err != nil {
					t.Fatalf("%s: parse: %v", g.name, err)
				}
				return p
			}
		}
		res, err := sys.MW.Optimize(initial())
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, c := range res.Candidates {
			if err := planck.Check(c.Plan, sys.MW.Cat); err != nil {
				t.Errorf("%s: candidate %v\n%s", g.name, err, c.Plan)
			}
		}
		tol := 1e-9 * g.cost
		switch {
		case g.key != "" && res.Best.Key() != g.key:
			t.Errorf("%s: chose\n  %s\nwant\n  %s", g.name, res.Best.Key(), g.key)
		case g.key != "" && math.Abs(res.BestCost-g.cost) > tol:
			t.Errorf("%s: cost %v, want %v", g.name, res.BestCost, g.cost)
		case g.key == "" && res.BestCost > g.cost+tol:
			t.Errorf("%s: cost %v exceeds the truncated search's %v:\n%s", g.name, res.BestCost, g.cost, res.Best)
		}
		if g.key == "" {
			continue
		}
		for _, class := range []struct {
			name string
			want pin
			in   func(*algebra.Node) bool
		}{{"no-T^D", g.noTD, withoutTD}, {"all-DBMS", g.allDBMS, allInDBMS}} {
			var got pin
			for _, c := range res.Candidates { // ascending cost
				if class.in(c.Plan) {
					got = pin{c.Plan.Key(), c.Cost}
					break
				}
			}
			if got.key != class.want.key || math.Abs(got.cost-class.want.cost) > 1e-9*class.want.cost {
				t.Errorf("%s: cheapest %s candidate\n  %s at %v\nwant\n  %s at %v",
					g.name, class.name, got.key, got.cost, class.want.key, class.want.cost)
			}
		}
	}
}

// pin is a pinned candidate: its plan key and estimated cost.
type pin struct {
	key  string
	cost float64
}

// withoutTD reports whether a plan ships nothing back into the DBMS.
func withoutTD(p *algebra.Node) bool {
	ok := true
	p.Walk(func(n *algebra.Node) { ok = ok && n.Op != algebra.OpTD })
	return ok
}

// allInDBMS reports whether a plan is a single T^M over DBMS operators
// only (a stratum-style plan).
func allInDBMS(p *algebra.Node) bool {
	ok := p.Op == algebra.OpTM
	p.Left.Walk(func(n *algebra.Node) { ok = ok && n.Loc() == algebra.LocDBMS && n.Op != algebra.OpTD })
	return ok
}
