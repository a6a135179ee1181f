package tango

import (
	"strings"
	"sync"
	"testing"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/storage"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/wire"
)

// openMWMetrics builds a fully wired middleware (registry through
// every layer, IOProbe at the embedded engine) over a POSITION table
// with the given row count.
func openMWMetrics(t *testing.T, rows int) (*Middleware, *telemetry.Registry) {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	mw := Open(srv, Options{HistogramBuckets: 8, Metrics: reg})
	mw.IOProbe = func() (storage.IOStats, storage.PoolStats) {
		return db.Disk().Snapshot(), db.Pool().Snapshot()
	}
	if _, err := mw.Conn.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		start := int64(i % 50)
		tuples[i] = types.Tuple{
			types.Int(int64(i%7 + 1)),
			types.Str("emp"),
			types.Float(10),
			types.Int(start),
			types.Int(start + 5 + int64(i%11)),
		}
	}
	if _, err := mw.Conn.Load("POSITION", tuples); err != nil {
		t.Fatal(err)
	}
	return mw, reg
}

// TestExecutorExecStats: the instrumented executor must produce an
// operator tree mirroring the plan, with row counts that agree with
// the materialized result and Volcano Next-call accounting.
func TestExecutorExecStats(t *testing.T) {
	conn, ex := setup(t)
	_ = conn
	ex.Analyze = true
	out, err := ex.Run(paperPlanAllMW())
	if err != nil {
		t.Fatal(err)
	}
	st := ex.ExecStats()
	if st == nil {
		t.Fatal("ExecStats nil with Analyze set")
	}
	if st.Op != "Sort^M" {
		t.Errorf("root op = %q, want Sort^M", st.Op)
	}
	if st.Rows != int64(out.Cardinality()) {
		t.Errorf("root rows = %d, result = %d", st.Rows, out.Cardinality())
	}
	// The executor drains the root a batch at a time: one Next-equivalent
	// per full batch plus the EOS probe.
	wantNexts := (st.Rows+rel.DefaultBatchSize-1)/rel.DefaultBatchSize + 1
	if st.Nexts != wantNexts {
		t.Errorf("root nexts = %d, want %d (batch accounting for %d rows)", st.Nexts, wantNexts, st.Rows)
	}
	seen := map[string]*telemetry.OpStats{}
	st.Walk(func(s *telemetry.OpStats) { seen[s.Op] = s })
	for _, op := range []string{"TAggr^M", "TJoin^M", "TM"} {
		if seen[op] == nil {
			t.Fatalf("operator %s missing from stats tree:\n%s", op, st.Format())
		}
	}
	if seen["TAggr^M"].Bytes <= 0 {
		t.Errorf("TAggr^M bytes not counted")
	}
	// Every instrumented operator carries its plan node for the
	// adaptive loop.
	st.Walk(func(s *telemetry.OpStats) {
		if s.Node == nil {
			t.Errorf("operator %s has no plan node", s.Op)
		}
	})
	// Disabled instrumentation stays free.
	ex2 := &Executor{Conn: conn, Cat: ex.Cat}
	if _, err := ex2.Run(paperPlanAllDBMS()); err != nil {
		t.Fatal(err)
	}
	if ex2.ExecStats() != nil {
		t.Error("ExecStats non-nil without Analyze/Metrics")
	}
}

// TestMiddlewareTraceSpans: Run must leave a query → optimize/build/
// execute span tree with optimizer attrs and transfer child spans.
func TestMiddlewareTraceSpans(t *testing.T) {
	mw, _ := openMWMetrics(t, 200)
	plan, err := tsql.Parse("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID", mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw.Run(plan); err != nil {
		t.Fatal(err)
	}
	tr := mw.LastTrace()
	if tr == nil {
		t.Fatal("no trace after Run")
	}
	names := map[string]bool{}
	for _, c := range tr.Children() {
		names[c.Name] = true
	}
	for _, want := range []string{"optimize", "build", "execute"} {
		if !names[want] {
			t.Errorf("span %q missing; trace:\n%s", want, tr.Render())
		}
	}
	rendered := tr.Render()
	for _, want := range []string{"classes=", "rows=", "transfer", "pool_hits="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("trace lacks %q:\n%s", want, rendered)
		}
	}
	if mw.LastExecStats() == nil {
		t.Error("no exec stats after instrumented Run")
	}
}

// TestMetadataFetchesNestUnderOptimize: on a fresh middleware, whose
// statistics cache is cold, the optimizer's metadata fetches are traced
// as children of the optimize span, so its time shows where it went.
func TestMetadataFetchesNestUnderOptimize(t *testing.T) {
	mw, _ := openMWMetrics(t, 200)
	plan, err := tsql.Parse("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID", mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mw.Run(plan); err != nil {
		t.Fatal(err)
	}
	tr := mw.LastTrace()
	fetches := 0
	var walk func(parent, sp *telemetry.Span)
	walk = func(parent, sp *telemetry.Span) {
		if sp.Name == "schema" || sp.Name == "stats" {
			fetches++
			if parent.Name != "optimize" {
				t.Errorf("%s span under %q, want optimize:\n%s", sp.Name, parent.Name, tr.Render())
			}
		}
		for _, c := range sp.Children() {
			walk(sp, c)
		}
	}
	for _, c := range tr.Children() {
		walk(tr, c)
	}
	if fetches == 0 {
		t.Fatalf("no metadata fetch traced on a cold cache:\n%s", tr.Render())
	}
}

// TestFetchSpansNestUnderTransfers: in a traced run, every cursor's
// query and fetch attempts are children of the "transfer" span of the
// T^M that opened the cursor, and every transfer (T^M or T^D) is a
// child of "execute" — so a fetch's time is counted once, inside
// execute. The plans read over several fetches each, one from a T^M
// whose SQL depends on a T^D load.
func TestFetchSpansNestUnderTransfers(t *testing.T) {
	mw, _ := openMWMetrics(t, 400)
	mw.Conn.Prefetch = 50
	for _, plan := range []*algebra.Node{paperPlanAllMW(), paperPlanMWAggr()} {
		root := telemetry.NewSpan("query")
		ex := &Executor{Conn: mw.Conn, Cat: mw.Cat, Trace: root}
		if _, err := ex.Run(plan); err != nil {
			t.Fatal(err)
		}
		root.Finish()
		if open := telemetry.UnfinishedSpans(root); len(open) > 0 {
			t.Fatalf("unfinished spans %v:\n%s", open, root.Render())
		}
		fetches := 0
		var walk func(parent, sp *telemetry.Span)
		walk = func(parent, sp *telemetry.Span) {
			switch sp.Name {
			case "fetch", "query":
				if sp.Name == "fetch" {
					fetches++
				}
				if parent.Name != "transfer" {
					t.Errorf("%s span under %q, want transfer:\n%s", sp.Name, parent.Name, root.Render())
				}
			case "transfer":
				if parent.Name != "execute" {
					t.Errorf("transfer span under %q, want execute:\n%s", parent.Name, root.Render())
				}
			}
			for _, c := range sp.Children() {
				walk(sp, c)
			}
		}
		for _, c := range root.Children() {
			walk(root, c)
		}
		if fetches < 2*len(ex.Feedback()) {
			t.Fatalf("%d fetch spans for %d transfers:\n%s", fetches, len(ex.Feedback()), root.Render())
		}
	}
}

// TestAdaptiveLoopFromMeasuredOperators: executing with telemetry must
// move the middleware algorithm factors (not just the transfer
// factors) and record Q-error drift for TAggr and TJoin.
func TestAdaptiveLoopFromMeasuredOperators(t *testing.T) {
	mw, reg := openMWMetrics(t, 400)
	before := mw.Model.F
	if _, err := mw.Execute(paperPlanAllMW()); err != nil {
		t.Fatal(err)
	}
	after := mw.Model.F
	if after.TAggrM1 == before.TAggrM1 && after.TAggrM2 == before.TAggrM2 {
		t.Error("TAggr^M factors did not adapt from measured timings")
	}
	if after.JoinM == before.JoinM {
		t.Error("Join^M factor did not adapt from measured timings")
	}
	if after.TM == before.TM {
		t.Error("transfer factor did not adapt")
	}
	for _, op := range []string{"TAggr^M", "TJoin^M"} {
		h := reg.Histogram("tango_qerror", telemetry.Labels{"op": op}, telemetry.QErrorBuckets)
		if h.Count() == 0 {
			t.Errorf("no Q-error recorded for %s", op)
		}
		if q := reg.Gauge("tango_qerror_last", telemetry.Labels{"op": op}).Value(); q < 1 {
			t.Errorf("Q-error for %s = %g, want >= 1", op, q)
		}
	}
	// Per-operator series flushed under engine="mw".
	l := telemetry.Labels{"engine": "mw", "op": "TAggr^M"}
	if n := reg.Counter("tango_operator_rows_total", l).Value(); n <= 0 {
		t.Errorf("TAggr^M rows not exported: %d", n)
	}
}

// TestExplainAnalyzeReport: the report must combine span tree,
// measured operator tree, and a result summary with consistent rows.
func TestExplainAnalyzeReport(t *testing.T) {
	mw, _ := openMWMetrics(t, 200)
	plan, err := tsql.Parse("VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID", mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	report, out, err := mw.ExplainAnalyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"estimated cost", "classes", "optimize", "execute",
		"operators:", "TAggr^M", "nexts=", "self=",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	st := mw.LastExecStats()
	if st == nil {
		t.Fatal("no exec stats after EXPLAIN ANALYZE")
	}
	if st.Rows != int64(out.Cardinality()) {
		t.Errorf("stats rows %d != result rows %d", st.Rows, out.Cardinality())
	}
	// The optimizer search counters were exported.
	if n := mw.Metrics.Counter("tango_optimizer_plans_costed_total", nil).Value(); n <= 0 {
		t.Errorf("plans costed not exported: %d", n)
	}
}

// TestConcurrentQueriesWithTelemetry exercises the whole telemetry
// path under concurrency (run with -race): one server and one shared
// registry, many connections running instrumented split plans at once.
func TestConcurrentQueriesWithTelemetry(t *testing.T) {
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	reg := telemetry.NewRegistry()
	srv.RegisterMetrics(reg)
	boot := client.Connect(srv)
	if _, err := boot.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Exec("INSERT INTO POSITION VALUES (1,'Tom',12.0,2,20),(1,'Jane',9.0,5,25),(2,'Tom',12.0,5,10)"); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const runsPerWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := client.Connect(srv)
			conn.Metrics = reg
			ex := &Executor{Conn: conn, Cat: ConnCatalog{Conn: conn}, Metrics: reg}
			for i := 0; i < runsPerWorker; i++ {
				out, err := ex.Run(paperPlanAllMW().Clone())
				if err != nil {
					errs <- err
					return
				}
				if out.Cardinality() != len(figure3b) {
					errs <- errRows(out.Cardinality())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(workers * runsPerWorker * len(figure3b))
	l := telemetry.Labels{"engine": "mw", "op": "Sort^M"}
	if n := reg.Counter("tango_operator_rows_total", l).Value(); n != want {
		t.Errorf("Sort^M rows total = %d, want %d", n, want)
	}
	if reg.NumSeries() < 20 {
		t.Errorf("only %d series exported, want >= 20", reg.NumSeries())
	}
}

type errRows int

func (e errRows) Error() string { return "unexpected result cardinality" }
