// Chaos suite: every workload query is executed under a sweep of
// seeded wire-fault schedules at two scheduler widths.
// The contract is strict — each run must either produce a result
// list-equal to the fault-free reference (retries and plan fallback
// absorbed the faults) or fail with a typed, classified error; and no
// run may leak goroutines, server cursors, or transfer temp tables.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/optimizer"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/tango"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/wire"
)

// chaosPolicy is the chaos suite's retry policy: the default's attempt
// budget under looser deadlines.
func chaosPolicy() client.RetryPolicy {
	return client.RetryPolicy{
		MaxAttempts: 4,
		OpTimeout:   500 * time.Millisecond,
		Deadline:    5 * time.Second,
	}
}

// budgetTraps returns the schedule entries that drop the first
// k·(n−1)+1 round trips of op, where k is the number of T^M cursors of
// the plan the middleware chooses for initial and n the chaos retry
// budget. However the k cursors interleave, one of them meets n drops
// in a row and gives up, so the plan fails; and the at most n−1 drops
// left cannot exhaust the budget of a cursor of the fallback plan.
func budgetTraps(t *testing.T, sys *System, initial *algebra.Node, op string) []string {
	t.Helper()
	res, err := sys.MW.Optimize(initial)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	res.Best.Walk(func(n *algebra.Node) {
		if n.Op == algebra.OpTM {
			k++
		}
	})
	n := chaosPolicy().MaxAttempts
	traps := make([]string, k*(n-1)+1)
	if len(traps)-n >= n {
		t.Fatalf("%d cursors: %d traps could exhaust a fallback cursor too", k, len(traps))
	}
	for i := range traps {
		traps[i] = fmt.Sprintf("%s@%d=drop", op, i+1)
	}
	return traps
}

// typedFailure reports whether err is one of the resilience layer's
// classified failures (an OpError or a wire fault anywhere in the
// chain) rather than an untyped infrastructure mess.
func typedFailure(err error) bool {
	var oe *client.OpError
	var fe *wire.FaultError
	return errors.As(err, &oe) || errors.As(err, &fe)
}

// chaosSchedules enumerates the fault-schedule sweep: scripted
// "fail the Nth op" traps across every op × kind, plus persistent
// probability-1 rules that exhaust the whole retry budget.
func chaosSchedules(short bool) []string {
	ops := []string{"query", "fetch", "load", "exec"}
	kinds := []string{"drop", "stall", "partial"}
	nths := []int{1, 2}
	if short {
		ops = []string{"query", "fetch", "load"}
		kinds = []string{"drop", "partial"}
		nths = []int{1}
	}
	var out []string
	seed := 0
	for _, op := range ops {
		for _, kind := range kinds {
			for _, nth := range nths {
				seed++
				out = append(out, fmt.Sprintf("seed=%d;stall=1ms;%s@%d=%s", seed, op, nth, kind))
			}
			// Persistent: every call to op faults, so the retry budget is
			// exhausted and the failure (or a plan fallback) must surface
			// cleanly.
			seed++
			out = append(out, fmt.Sprintf("seed=%d;stall=1ms;%s~%s=1", seed, op, kind))
		}
	}
	return out
}

// chaosRuns is what a chaos sweep executes under each schedule: every
// seed query through the middleware, then Query 2's two plans that ship
// an intermediate down through T^D (P1 and P5), run as given by runPlan.
// The optimizer picks no such plan for the seed queries at sweep sizes,
// and without them no load or exec trap would have a call to land on.
func chaosRuns(mw *tango.Middleware, runPlan func(NamedPlan) (*rel.Relation, error)) []func() (*rel.Relation, error) {
	var runs []func() (*rel.Relation, error)
	for _, q := range SeedQueries {
		runs = append(runs, func() (*rel.Relation, error) {
			plan, err := tsql.Parse(q, mw.Cat)
			if err != nil {
				return nil, err
			}
			out, _, err := mw.Run(plan)
			return out, err
		})
	}
	plans := Q2Plans(Day(1996, time.January, 1))
	for _, np := range []NamedPlan{plans[0], plans[4]} {
		runs = append(runs, func() (*rel.Relation, error) { return runPlan(np) })
	}
	return runs
}

// TestChaosSweep runs every workload query under every fault schedule
// at GOMAXPROCS 1 and 4. The middleware is sequential, but each T^M
// cursor's read-ahead goroutine, the retry path's abandoned attempts
// and the server still run concurrently with the consumer, and one
// processor versus four interleaves them differently.
func TestChaosSweep(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			sys, err := NewSystem(Config{
				PositionRows: 700, EmployeeRows: 250, Histograms: 10,
				Retry: chaosPolicy(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Fault-free references.
			runs := chaosRuns(sys.MW, func(np NamedPlan) (*rel.Relation, error) {
				out, _, err := sys.RunPlan(np)
				return out, err
			})
			refs := make([]*rel.Relation, len(runs))
			for i, run := range runs {
				out, err := run()
				if err != nil {
					t.Fatalf("fault-free run %d: %v", i, err)
				}
				refs[i] = out
			}
			for _, src := range chaosSchedules(testing.Short()) {
				src := src
				t.Run(src, func(t *testing.T) {
					defer itertest.Goroutines(t)()
					sched, err := wire.ParseSchedule(src)
					if err != nil {
						t.Fatalf("schedule %q: %v", src, err)
					}
					inj := sched.Injector()
					sys.Srv.SetFaults(inj)
					defer sys.Srv.SetFaults(nil)
					persistent := strings.Contains(src, "~")
					for i, run := range runs {
						out, err := run()
						switch {
						case err != nil:
							if !typedFailure(err) {
								t.Fatalf("q%d: untyped failure under %q: %v", i, src, err)
							}
						case rel.EqualAsLists(out, refs[i]):
							// Retries (or a deterministic fallback) fully
							// absorbed the faults.
						case persistent && rel.EqualAsMultisets(out, refs[i]):
							// A plan fallback re-sited the query; for
							// statements without a total order the fallback
							// plan may produce another valid ordering.
						default:
							t.Fatalf("q%d: wrong result under %q (%d vs %d rows)",
								i, src, out.Cardinality(), refs[i].Cardinality())
						}
						// No run may leak server-side resources, faults or not.
						if n := sys.Srv.OpenCursors(); n != 0 {
							t.Fatalf("q%d: %d cursor(s) leaked under %q", i, n, src)
						}
						if temps := sys.Srv.TempTables(); len(temps) != 0 {
							t.Fatalf("q%d: temp tables leaked under %q: %v", i, src, temps)
						}
					}
					// A scripted trap the workload never reaches tests nothing.
					if strings.Contains(src, "@") && inj.Injected() == 0 {
						t.Fatalf("no fault injected under %q", src)
					}
				})
			}
			// Session GC: whatever the sweep left behind client-side is
			// collected when the connection's session ends.
			if err := sys.MW.Conn.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if temps := sys.Srv.TempTables(); len(temps) != 0 {
				t.Fatalf("temp tables survived session GC: %v", temps)
			}
			if n := sys.Srv.LiveSessions(); n != 0 {
				t.Fatalf("%d session(s) still live", n)
			}
		})
	}
}

// TestChaosFallbackLoad demonstrates plan-level graceful degradation
// for the middleware → DBMS direction: with every bulk load dropped,
// a plan that ships an intermediate down through T^D cannot run, and
// the middleware must re-site the query onto the all-DBMS candidate —
// visibly, via the "fallback" span and the fallback counter.
func TestChaosFallbackLoad(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{
		PositionRows: 700, EmployeeRows: 100, Histograms: 10,
		Retry: chaosPolicy(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := Day(1996, time.January, 1)
	plans := Q2Plans(end)
	withTD := plans[0] // P1: TAGGR^M with a T^D shipping the aggregate down
	allDBMS := plans[5]
	ref, _, err := sys.RunPlan(allDBMS)
	if err != nil {
		t.Fatal(err)
	}
	res := &optimizer.Result{
		Best:     withTD.Plan.Clone(),
		BestCost: 1,
		Candidates: []optimizer.Candidate{
			{Plan: withTD.Plan.Clone(), Cost: 1},
			{Plan: allDBMS.Plan.Clone(), Cost: 2},
		},
	}
	sched, err := wire.ParseSchedule("seed=11;load~drop=1")
	if err != nil {
		t.Fatal(err)
	}
	sys.Srv.SetFaults(sched.Injector())
	defer sys.Srv.SetFaults(nil)

	root := telemetry.NewSpan("query")
	out, err := sys.MW.ExecuteResult(res, root)
	root.Finish()
	if err != nil {
		t.Fatalf("degraded execution failed: %v", err)
	}
	if !rel.EqualAsLists(out, ref) {
		t.Fatalf("fallback result differs from all-DBMS reference (%d vs %d rows)",
			out.Cardinality(), ref.Cardinality())
	}
	var fb *telemetry.Span
	for _, c := range root.Children() {
		if c.Name == "fallback" {
			fb = c
		}
	}
	if fb == nil {
		t.Fatalf("no fallback span in trace:\n%s", root.Render())
	}
	if got := reg.Counter("tango_plan_fallbacks_total", telemetry.Labels{"op": "load"}).Value(); got < 1 {
		t.Fatalf("tango_plan_fallbacks_total{op=load} = %d, want >= 1", got)
	}
	if n := sys.Srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
	if temps := sys.Srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables leaked: %v", temps)
	}
}

// TestChaosFallbackQueryVisible is the end-to-end acceptance check
// for the DBMS → middleware direction: an injected T^M failure (the
// first OPEN trapped past the whole retry budget) must trigger a
// re-sited fallback plan that is visible in EXPLAIN ANALYZE's span
// tree and counted in the metrics registry.
func TestChaosFallbackQueryVisible(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{
		PositionRows: 700, EmployeeRows: 100, Histograms: 10,
		Retry: chaosPolicy(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := Day(1996, time.January, 1)
	// Fault-free reference for the same statement.
	ref, _, err := sys.MW.Run(Q2Initial(end))
	if err != nil {
		t.Fatal(err)
	}
	// Trap the first logical OPEN for the whole retry budget, on
	// whichever T^M of the best plan meets the traps first: the plan
	// dies of an exhausted OpError and the middleware must re-site.
	traps := budgetTraps(t, sys, Q2Initial(end), "query")
	sched, err := wire.ParseSchedule("seed=3;" + strings.Join(traps, ";"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Srv.SetFaults(sched.Injector())
	defer sys.Srv.SetFaults(nil)

	report, out, err := sys.MW.ExplainAnalyze(Q2Initial(end))
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE under query traps: %v", err)
	}
	if !rel.EqualAsMultisets(out, ref) {
		t.Fatalf("fallback result differs from reference (%d vs %d rows)",
			out.Cardinality(), ref.Cardinality())
	}
	if !strings.Contains(report, "fallback") {
		t.Fatalf("EXPLAIN ANALYZE does not show the fallback:\n%s", report)
	}
	if got := reg.Counter("tango_plan_fallbacks_total", telemetry.Labels{"op": "query"}).Value(); got < 1 {
		t.Fatalf("tango_plan_fallbacks_total{op=query} = %d, want >= 1", got)
	}
	if got := reg.Counter("tango_client_gaveup_total", telemetry.Labels{"op": "query"}).Value(); got < 1 {
		t.Fatalf("tango_client_gaveup_total{op=query} = %d, want >= 1", got)
	}
	if got := reg.Counter("tango_client_retries_total", telemetry.Labels{"op": "query"}).Value(); got < 1 {
		t.Fatalf("tango_client_retries_total{op=query} = %d, want >= 1", got)
	}
}
