package bench

import (
	"fmt"
	"testing"

	"tango/internal/rel"
	"tango/internal/tango"
	"tango/internal/tsql"
)

// TestParallelExecutionDeterministic is the contract behind the
// Parallelism knob: for every query in the evaluation workload, the
// parallel operators (parallel SORT^M run generation, partitioned
// TAGGR^M and merge joins) must produce
// a result tuple-for-tuple identical — including order — to the
// sequential algorithms. The same optimized plan is executed once with
// Parallelism=1 and once per parallel setting, all under the planck
// plan validator.
func TestParallelExecutionDeterministic(t *testing.T) {
	sys, err := NewSystem(Config{PositionRows: 1200, EmployeeRows: 400, Histograms: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range SeedQueries {
		q := q
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			plan, err := tsql.Parse(q, sys.MW.Cat)
			if err != nil {
				t.Fatalf("parse %q: %v", q, err)
			}
			res, err := sys.MW.Optimize(plan)
			if err != nil {
				t.Fatalf("optimize %q: %v", q, err)
			}
			exec := func(parallelism int) *rel.Relation {
				t.Helper()
				ex := &tango.Executor{
					Conn: sys.MW.Conn, Cat: sys.MW.Cat,
					CheckPlans: true, Parallelism: parallelism,
				}
				out, err := ex.Run(res.Best.Clone())
				if err != nil {
					t.Fatalf("parallelism=%d: %v", parallelism, err)
				}
				return out
			}
			seq := exec(1)
			for _, par := range []int{2, 4, 8} {
				got := exec(par)
				if !rel.EqualAsLists(got, seq) {
					t.Fatalf("parallelism=%d result differs from sequential (%d vs %d rows, or order changed)",
						par, got.Cardinality(), seq.Cardinality())
				}
			}
			if seq.Cardinality() == 0 && i < 4 {
				t.Fatalf("suspiciously empty result for workload query %d", i)
			}
		})
	}
}
