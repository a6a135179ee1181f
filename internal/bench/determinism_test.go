package bench

import (
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/tango"
)

// TestExecutorBuildsSequentialOperators: the executor builds XXL's
// operators, which have one sequential form each (xxl's
// TestSequentialOperators pins that), and for every plan of Queries
// 1–4 that runs operators in the middleware (Query 2's Plan 1 is the
// forced T^D shape, its TAGGR^M below a T^D) the result equals, as a
// list, the query's all-DBMS plan's.
func TestExecutorBuildsSequentialOperators(t *testing.T) {
	sys, err := NewSystem(Config{PositionRows: 1200, EmployeeRows: 400, Histograms: 10})
	if err != nil {
		t.Fatal(err)
	}
	end := Day(1996, time.January, 1)
	for qi, q := range []struct {
		plans []NamedPlan
		mw    []int // the plans with middleware operators (Query 2's P5 is another query)
		ref   int   // the all-DBMS plan
	}{
		{Q1Plans(), []int{0, 1}, 2},
		{Q2Plans(end), []int{0, 1, 2, 3}, 5},
		{Q3Plans(Day(1986, time.January, 1)), []int{1}, 0},
		{Q4Plans(), []int{0}, 2},
	} {
		run := func(np NamedPlan) *rel.Relation {
			t.Helper()
			ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, Hint: np.Hint, CheckPlans: true}
			it, err := ex.Build(np.Plan.Clone())
			if err != nil {
				t.Fatalf("%s: build: %v", np.Name, err)
			}
			out, err := rel.Drain(it)
			if err != nil {
				t.Fatalf("%s: %v", np.Name, err)
			}
			return out
		}
		want := run(q.plans[q.ref])
		if want.Cardinality() == 0 {
			t.Fatalf("query %d: empty all-DBMS result", qi+1)
		}
		for _, i := range q.mw {
			np := q.plans[i]
			if got := run(np); !rel.EqualAsLists(got, want) {
				t.Errorf("query %d %s: result differs from the all-DBMS plan as a list (%d vs %d rows, or order)",
					qi+1, np.Name, got.Cardinality(), want.Cardinality())
			}
		}
	}
}
