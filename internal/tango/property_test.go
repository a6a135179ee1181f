package tango

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/cost"
	"tango/internal/engine"
	"tango/internal/optimizer"
	"tango/internal/planck"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/sqlparser"
	"tango/internal/stats"
	"tango/internal/types"
	"tango/internal/wire"
)

// propSystem builds a DBMS with a randomized POSITION relation and the
// full optimizer stack.
func propSystem(t *testing.T, seed int64, rows int) (*client.Conn, *Executor, *cost.Model) {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	conn := client.Connect(srv)
	if _, err := conn.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	names := []string{"Tom", "Jane", "Ann", "Bob", "Eve"}
	for i := 0; i < rows; i++ {
		s := rng.Int63n(50)
		if _, err := conn.Exec(fmt.Sprintf(
			"INSERT INTO POSITION VALUES (%d, '%s', %g, %d, %d)",
			rng.Int63n(6)+1, names[rng.Intn(len(names))],
			float64(rng.Intn(200))/10, s, s+1+rng.Int63n(30))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Exec("ANALYZE POSITION HISTOGRAM 8"); err != nil {
		t.Fatal(err)
	}
	cat := ConnCatalog{Conn: conn}
	est := stats.NewEstimator(cat, conn)
	ex := &Executor{Conn: conn, Cat: cat}
	return conn, ex, cost.NewModel(est)
}

// normalizeFor compares relations as multisets after dequalifying
// names and sorting columns positionally.
func asMultisetKeyable(r *rel.Relation) *rel.Relation {
	c := r.Clone()
	c.Schema = c.Schema.Unqualified()
	return c
}

// TestAllCandidatePlansEquivalent is the paper's core correctness
// property: every transformation-rule product must be multiset
// equivalent to the initial plan when executed (and list equivalent
// when a top-level sort pins the order). We execute every enumerated
// candidate of several query shapes over randomized data. The
// join-float-nan shape adds rows whose FLOAT join keys are NaN, -0 and
// 0, loaded as values since SQL cannot write a NaN.
func TestAllCandidatePlansEquivalent(t *testing.T) {
	queries := []struct {
		name string
		plan func() *algebra.Node
	}{
		{"taggr", func() *algebra.Node {
			base := algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2")
			return algebra.TM(algebra.Sort(
				algebra.TAggr(base, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}),
				"PosID", "T1"))
		}},
		{"select-taggr", func() *algebra.Node {
			sel, _ := sqlparser.ParseSelect("SELECT 1 WHERE PayRate > 5")
			base := algebra.ProjectCols(
				algebra.Select(algebra.Scan("POSITION", ""), sel.Where),
				"PosID", "T1", "T2")
			return algebra.TM(algebra.Sort(
				algebra.TAggr(base, []string{"PosID"}, algebra.Agg{Fn: "MAX", Col: "PosID"}),
				"PosID", "T1"))
		}},
		{"tjoin", func() *algebra.Node {
			a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.EmpName", "A.T1", "A.T2")
			b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
			return algebra.TM(algebra.Sort(
				algebra.TJoin(a, b, []string{"A.PosID"}, []string{"B.PosID"}),
				"A.PosID"))
		}},
		{"join", func() *algebra.Node {
			a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.PayRate")
			b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName")
			return algebra.TM(algebra.Join(a, b, []string{"A.PosID"}, []string{"B.PosID"}))
		}},
		{"join-float-nan", func() *algebra.Node {
			a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.PayRate")
			b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PayRate", "B.EmpName")
			return algebra.TM(algebra.Join(a, b, []string{"A.PayRate"}, []string{"B.PayRate"}))
		}},
	}
	nan, negZero := types.Float(math.NaN()), types.Float(math.Copysign(0, -1))
	extra := map[string][]types.Tuple{"join-float-nan": {
		{types.Int(7), types.Str("Nan"), nan, types.Int(1), types.Int(5)},
		{types.Int(8), types.Str("Nan"), nan, types.Int(2), types.Int(9)},
		{types.Int(7), types.Str("Zed"), negZero, types.Int(3), types.Int(4)},
		{types.Int(9), types.Str("Zed"), types.Float(0), types.Int(3), types.Int(6)},
	}}
	for _, q := range queries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				conn, ex, model := propSystem(t, seed, 40)
				if rows := extra[q.name]; rows != nil {
					if _, err := conn.Load("POSITION", rows); err != nil {
						t.Fatal(err)
					}
					if _, err := conn.Exec("ANALYZE POSITION HISTOGRAM 8"); err != nil {
						t.Fatal(err)
					}
				}
				res, err := optimizer.Optimize(model, q.plan())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Candidates) < 2 {
					t.Fatalf("seed %d: only %d candidates enumerated", seed, len(res.Candidates))
				}
				ref, err := ex.Run(q.plan())
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				refN := asMultisetKeyable(ref)
				for ci, cand := range res.Candidates {
					got, err := ex.Run(cand.Plan)
					if err != nil {
						t.Fatalf("seed %d candidate %d: %v\n%s", seed, ci, err, cand.Plan)
					}
					if !rel.EqualAsMultisets(refN, asMultisetKeyable(got)) {
						t.Fatalf("seed %d candidate %d not multiset-equivalent (%d vs %d rows)\n%s",
							seed, ci, refN.Cardinality(), got.Cardinality(), cand.Plan)
					}
				}
			}
		})
	}
}

// TestOrderedJoinCandidatesDeliverOrder orders joins past their join
// columns. A merge join keeps its left input's order, so the order may
// be pushed into the left input only for further left columns, and
// never for the period a temporal join intersects. Every candidate must
// pass planck, return the reference multiset, and arrive in order.
func TestOrderedJoinCandidatesDeliverOrder(t *testing.T) {
	a := func() *algebra.Node {
		return algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.PayRate", "A.T1", "A.T2")
	}
	b := func() *algebra.Node {
		return algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
	}
	join := func() *algebra.Node { return algebra.Join(a(), b(), []string{"A.PosID"}, []string{"B.PosID"}) }
	tjoin := func() *algebra.Node { return algebra.TJoin(a(), b(), []string{"A.PosID"}, []string{"B.PosID"}) }
	queries := []struct {
		name string
		in   func() *algebra.Node
		keys []string
	}{
		{"join-right-column", join, []string{"A.PosID", "B.EmpName"}},
		{"join-left-column", join, []string{"A.PosID", "A.PayRate"}},
		{"tjoin-period", tjoin, []string{"A.PosID", "A.T1"}},
		{"tjoin-left-column", tjoin, []string{"A.PosID", "A.PayRate"}},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			_, ex, model := propSystem(t, 5, 40)
			initial := func() *algebra.Node { return algebra.TM(algebra.Sort(q.in(), q.keys...)) }
			res, err := optimizer.Optimize(model, initial())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ex.Run(initial())
			if err != nil {
				t.Fatal(err)
			}
			refN := asMultisetKeyable(ref)
			for ci, cand := range res.Candidates {
				if err := planck.Check(cand.Plan, ex.Cat); err != nil {
					t.Fatalf("candidate %d: %v\n%s", ci, err, cand.Plan)
				}
				got, err := ex.Run(cand.Plan)
				if err != nil {
					t.Fatalf("candidate %d: %v\n%s", ci, err, cand.Plan)
				}
				if !rel.EqualAsMultisets(refN, asMultisetKeyable(got)) {
					t.Fatalf("candidate %d not multiset-equivalent\n%s", ci, cand.Plan)
				}
				keys := make([]int, len(q.keys))
				for i, k := range q.keys {
					keys[i] = got.Schema.MustIndex(k)
				}
				for i := 1; i < got.Cardinality(); i++ {
					if types.CompareTuples(got.Tuples[i-1], got.Tuples[i], keys, nil) > 0 {
						t.Fatalf("candidate %d out of %v order at row %d\n%s", ci, q.keys, i, cand.Plan)
					}
				}
			}
		})
	}
}

// TestBestPlanListEquivalentUnderTopSort checks the stronger list
// equivalence: when the query pins a total order, the optimizer's best
// plan must deliver rows in that order.
func TestBestPlanListEquivalentUnderTopSort(t *testing.T) {
	_, ex, model := propSystem(t, 11, 60)
	base := algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "T1", "T2")
	initial := algebra.TM(algebra.Sort(
		algebra.TAggr(base, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"}),
		"PosID", "T1"))
	res, err := optimizer.Optimize(model, initial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ex.Run(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	pos := got.Schema.MustIndex("PosID")
	t1 := got.Schema.MustIndex("T1")
	for i := 1; i < got.Cardinality(); i++ {
		a, b := got.Tuples[i-1], got.Tuples[i]
		if a[pos].AsInt() > b[pos].AsInt() ||
			(a[pos].AsInt() == b[pos].AsInt() && a[t1].AsInt() > b[t1].AsInt()) {
			t.Fatalf("best plan violates requested order at row %d:\n%s", i, res.Best)
		}
	}
}

// TestNarrowingRulesStayCorrect targets the projection-narrowing rules
// (G4-narrow + T5r): an aggregation over a wide scan must remain
// correct across every enumerated candidate, including the plans where
// the projection was pushed below the DBMS sort.
func TestNarrowingRulesStayCorrect(t *testing.T) {
	for seed := int64(10); seed <= 14; seed++ {
		_, ex, model := propSystem(t, seed, 50)
		// No user projection: the narrowing rule must introduce it.
		initial := algebra.TM(algebra.Sort(
			algebra.TAggr(algebra.Scan("POSITION", ""), []string{"PosID"},
				algebra.Agg{Fn: "COUNT", Col: "PosID"}),
			"PosID", "T1"))
		res, err := optimizer.Optimize(model, initial)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ex.Run(initial.Clone())
		if err != nil {
			t.Fatal(err)
		}
		refN := asMultisetKeyable(ref)
		narrowed := false
		for ci, cand := range res.Candidates {
			cand.Plan.Walk(func(n *algebra.Node) {
				if n.Op == algebra.OpProject && n.Loc() == algebra.LocDBMS {
					narrowed = true
				}
			})
			got, err := ex.Run(cand.Plan)
			if err != nil {
				t.Fatalf("seed %d candidate %d: %v\n%s", seed, ci, err, cand.Plan)
			}
			if !rel.EqualAsMultisets(refN, asMultisetKeyable(got)) {
				t.Fatalf("seed %d candidate %d wrong (%d vs %d rows)\n%s",
					seed, ci, got.Cardinality(), refN.Cardinality(), cand.Plan)
			}
		}
		if !narrowed {
			t.Errorf("seed %d: no candidate pushed a projection into the DBMS", seed)
		}
	}
}
