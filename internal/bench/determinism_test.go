package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/rel"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/xxl"
)

// TestExecutorBuildsSequentialOperators pins the executor to one form
// per operator: for every plan of Queries 1–4 that runs operators in
// the middleware (Query 2's Plan 1 is the forced T^D shape, its
// TAGGR^M below a T^D), the built iterator tree holds no partitioned
// operator and no SORT^M with a worker pool, and the result equals, as
// a list, the query's all-DBMS plan's.
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
			walkOperators(it, func(op reflect.Value) {
				switch op.Type() {
				case reflect.TypeOf((*xxl.Partitioned)(nil)):
					t.Errorf("%s: executor built a partitioned operator", np.Name)
				case reflect.TypeOf((*xxl.Sort)(nil)):
					if p := op.Elem().FieldByName("Parallelism").Int(); p > 1 {
						t.Errorf("%s: executor built SORT^M with Parallelism %d", np.Name, p)
					}
				}
			})
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

// walkOperators calls visit on every operator of a built iterator tree:
// it follows the fields of the middleware's, xxl's, rel's and
// telemetry's types — through pointers, interfaces, slices and rel.Input
// handles, into T^D's middleware islands too — and stops at the client
// cursor, whose connection leads out of the plan.
func walkOperators(it rel.Iterator, visit func(reflect.Value)) {
	iterType := reflect.TypeOf((*rel.Iterator)(nil)).Elem()
	inTree := func(t reflect.Type) bool {
		for _, pkg := range []string{"tango/internal/tango", "tango/internal/xxl", "tango/internal/rel", "tango/internal/telemetry"} {
			if t.PkgPath() == pkg {
				return true
			}
		}
		return false
	}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if v.IsNil() || !inTree(v.Type().Elem()) || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type().Implements(iterType) {
				visit(v)
			}
			walk(v.Elem())
		case reflect.Struct:
			if inTree(v.Type()) {
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i))
				}
			}
		case reflect.Slice:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Interface {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		}
	}
	walk(reflect.ValueOf(it))
}

// TestParallelExecutionDeterministic holds the parallel forms the
// executor no longer builds — the partitioned TAGGR^M, merge join and
// TJOIN^M and the worker-pool SORT^M, which the benchmark module's
// per-layer replay still runs — to the executor's results: for every
// query in the evaluation workload, each middleware operator of the
// optimized plan that has a parallel form is replayed over its inputs'
// materialized results at fan-out 2, 4 and 8, and must reproduce the
// executor's result for the same subtree tuple for tuple, order
// included.
func TestParallelExecutionDeterministic(t *testing.T) {
	sys, err := NewSystem(Config{PositionRows: 1200, EmployeeRows: 400, Histograms: 10})
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for i, q := range SeedQueries {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			plan, err := tsql.Parse(q, sys.MW.Cat)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			res, err := sys.MW.Optimize(plan)
			if err != nil {
				t.Fatalf("optimize %q: %v", q, err)
			}
			run := func(n *algebra.Node) *rel.Relation {
				t.Helper()
				ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, CheckPlans: true}
				out, err := ex.Run(n.Clone())
				if err != nil {
					t.Fatalf("%v: %v", n.Op, err)
				}
				return out
			}
			if out := run(res.Best); out.Cardinality() == 0 && i < 4 {
				t.Fatalf("suspiciously empty result for workload query %d", i)
			}
			var visit func(n *algebra.Node)
			visit = func(n *algebra.Node) {
				if n == nil {
					return
				}
				visit(n.Left)
				visit(n.Right)
				if n.Loc() != algebra.LocMW {
					return
				}
				switch n.Op {
				case algebra.OpSort, algebra.OpTAggr, algebra.OpJoin, algebra.OpTJoin:
				default:
					return
				}
				want := run(n)
				left := run(n.Left)
				var right *rel.Relation
				if n.Right != nil {
					right = run(n.Right)
				}
				for _, par := range []int{2, 4, 8} {
					it, err := parallelForm(n, sys.MW.Cat, left, right, par)
					if err != nil {
						t.Fatalf("%v: %v", n.Op, err)
					}
					got, err := rel.Drain(it)
					if err != nil {
						t.Fatalf("%v at fan-out %d: %v", n.Op, par, err)
					}
					if !rel.EqualAsLists(got, want) {
						t.Fatalf("%v at fan-out %d differs from the executor (%d vs %d rows, or order changed)",
							n.Op, par, got.Cardinality(), want.Cardinality())
					}
				}
				replayed++
			}
			visit(res.Best)
		})
	}
	if replayed == 0 {
		t.Fatal("no optimized workload plan has a middleware operator with a parallel form")
	}
}

// parallelForm builds the parallel form of a middleware SORT^M,
// TAGGR^M, merge join or TJOIN^M over materialized inputs at fan-out
// par. The sort's run budget is small, so it spills runs on the pool.
func parallelForm(n *algebra.Node, cat algebra.Catalog, left, right *rel.Relation, par int) (rel.Iterator, error) {
	cols := func(r *rel.Relation, names []string) ([]int, error) {
		idx := make([]int, len(names))
		for i, name := range names {
			if idx[i] = r.Schema.ColumnIndex(name); idx[i] < 0 {
				return nil, fmt.Errorf("no column %q in %s", name, strings.Join(r.Schema.Names(), ","))
			}
		}
		return idx, nil
	}
	switch n.Op {
	case algebra.OpSort:
		keys, err := cols(left, n.Keys)
		if err != nil {
			return nil, err
		}
		s := xxl.NewSort(left.Iter(), keys)
		s.MemTuples, s.Parallelism = 128, par
		return s, nil
	case algebra.OpTAggr:
		groupBy, err := cols(left, n.GroupBy)
		if err != nil {
			return nil, err
		}
		out, err := n.Schema(cat)
		if err != nil {
			return nil, err
		}
		aggs := make([]xxl.AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = xxl.AggSpec{Kind: xxl.AggKind(a.Fn)}
			if a.Fn != "COUNT" {
				c, err := cols(left, []string{a.Col})
				if err != nil {
					return nil, err
				}
				aggs[i].Col = c[0]
			}
		}
		t1, t2 := algebra.TimeColumns(left.Schema)
		return xxl.NewPTAggr(left.Iter(), groupBy, t1, t2, aggs, out, par), nil
	default: // OpJoin, OpTJoin
		lkeys, err := cols(left, n.LeftCols)
		if err != nil {
			return nil, err
		}
		rkeys, err := cols(right, n.RightCols)
		if err != nil {
			return nil, err
		}
		if n.Op == algebra.OpJoin {
			return xxl.NewPMergeJoin(left.Iter(), right.Iter(), lkeys, rkeys, par), nil
		}
		lt1, lt2 := algebra.TimeColumns(left.Schema)
		rt1, rt2 := algebra.TimeColumns(right.Schema)
		return xxl.NewPTJoin(left.Iter(), right.Iter(), lkeys, rkeys, lt1, lt2, rt1, rt2, par), nil
	}
}
