// Distributed-tracing acceptance suite: a seeded chaos run must
// produce ONE stitched span tree covering both sites — the failed
// attempt, each retry, the plan-level fallback re-site, and the
// DBMS-side spans — all under the same 64-bit trace ID; chaos runs
// must leak no telemetry (every span finished, histogram counts equal
// to query counts, flight entries fully snapshotted); and after a
// scripted WAL crash the reopened system's recovery span must link to
// the pre-crash flight log with the dying query's trace intact.
package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/storage"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/wire"
)

// attrVal returns the value of a span attribute, or "".
func attrVal(sp *telemetry.Span, key string) string {
	for _, a := range sp.Attrs() {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// walkSpans applies f to every span of the tree, depth-first.
func walkSpans(sp *telemetry.Span, f func(*telemetry.Span)) {
	if sp == nil {
		return
	}
	f(sp)
	for _, c := range sp.Children() {
		walkSpans(c, f)
	}
}

// TestTraceStitchedFallback is the end-to-end tracing acceptance
// check: with the first logical fetch trapped for the whole retry
// budget, one Run must yield a single stitched trace that shows the
// failed attempts (tagged with their error class), the retries, the
// fallback re-site, and the DBMS-side spans — every span under the
// root's trace ID.
func TestTraceStitchedFallback(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{
		PositionRows: 700, EmployeeRows: 100, Histograms: 10,
		Retry: chaosPolicy(), Metrics: reg, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	end := Day(1996, time.January, 1)
	// Fault-free reference (also the first traced query).
	ref, _, err := sys.MW.Run(Q2Initial(end))
	if err != nil {
		t.Fatal(err)
	}
	queries := int64(1)

	// Trap every attempt of the first logical fetch of whichever T^M
	// meets the traps first: the winning plan dies of an exhausted
	// OpError and the middleware must re-site onto a fallback
	// candidate, whose own fetches (too few traps left) succeed.
	n := chaosPolicy().MaxAttempts
	traps := budgetTraps(t, sys, Q2Initial(end), "fetch")
	sched, err := wire.ParseSchedule("seed=9;" + strings.Join(traps, ";"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Srv.SetFaults(sched.Injector())
	defer sys.Srv.SetFaults(nil)

	out, _, err := sys.MW.Run(Q2Initial(end))
	if err != nil {
		t.Fatalf("run under fetch traps: %v", err)
	}
	queries++
	if !rel.EqualAsMultisets(out, ref) {
		t.Fatalf("fallback result differs from reference (%d vs %d rows)",
			out.Cardinality(), ref.Cardinality())
	}

	root := sys.MW.LastTrace()
	if root == nil {
		t.Fatal("no trace recorded")
	}
	if root.TraceID() == 0 {
		t.Fatal("root has no trace ID")
	}

	// One trace: every span in the stitched tree — local and remote —
	// carries the root's trace ID.
	var failedAttempts, retried, remote int
	var fallback *telemetry.Span
	walkSpans(root, func(sp *telemetry.Span) {
		if sp.TraceID() != root.TraceID() {
			t.Fatalf("span %q has trace ID %016x, root has %016x:\n%s",
				sp.Name, sp.TraceID(), root.TraceID(), root.Render())
		}
		if sp.Name == "fetch" && attrVal(sp, "error_class") == "fault" {
			failedAttempts++
			if a, err := strconv.Atoi(attrVal(sp, "attempt")); err == nil && a > 0 {
				retried++
			}
		}
		if sp.Name == "fallback" {
			fallback = sp
		}
		if strings.HasPrefix(sp.Name, "dbms.") {
			remote++
			if attrVal(sp, "site") != "dbms" {
				t.Fatalf("remote span %q not tagged site=dbms", sp.Name)
			}
		}
	})
	if failedAttempts < n {
		t.Fatalf("trace shows %d failed fetch attempts, want %d:\n%s",
			failedAttempts, n, root.Render())
	}
	if retried == 0 {
		t.Fatalf("trace shows no retry (attempt > 0):\n%s", root.Render())
	}
	if fallback == nil {
		t.Fatalf("trace shows no fallback re-site:\n%s", root.Render())
	}
	if got := attrVal(fallback, "op"); got != "fetch" {
		t.Fatalf("fallback op = %q, want fetch", got)
	}
	if remote == 0 {
		t.Fatalf("no DBMS-side spans stitched into the trace:\n%s", root.Render())
	}
	// The fallback's re-sited execution produced wire traffic of its
	// own: at least one remote span hangs somewhere under the fallback.
	fbRemote := 0
	walkSpans(fallback, func(sp *telemetry.Span) {
		if strings.HasPrefix(sp.Name, "dbms.") {
			fbRemote++
		}
	})
	if fbRemote == 0 {
		t.Fatalf("no DBMS-side span under the fallback re-site:\n%s", root.Render())
	}

	// Zero telemetry leaks on this trace.
	if un := telemetry.UnfinishedSpans(root); len(un) != 0 {
		t.Fatalf("unfinished spans after run: %v", un)
	}
	if got := reg.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets).Count(); got != queries {
		t.Fatalf("tango_query_seconds count = %d, want %d", got, queries)
	}
	// The flight recorder holds both queries, newest last.
	if sys.Flight.Len() != int(queries) {
		t.Fatalf("flight holds %d entries, want %d", sys.Flight.Len(), queries)
	}
	last, _ := sys.Flight.Last()
	if last.TraceID != fmt.Sprintf("%016x", root.TraceID()) {
		t.Fatalf("flight last trace %s, want %016x", last.TraceID, root.TraceID())
	}
}

// TestChaosTelemetryClean sweeps a slice of the chaos schedule matrix
// with tracing on and asserts zero telemetry leaks after every query:
// no unfinished span anywhere in the trace, the end-to-end latency
// histogram counts exactly the queries run, the wire-op histograms
// count at least one observation per attempted query, and every
// flight-ring entry is a completed, detached snapshot (Done root,
// parseable trace ID) rather than a live span pinning batch buffers.
func TestChaosTelemetryClean(t *testing.T) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{
		PositionRows: 700, EmployeeRows: 100, Histograms: 10,
		Retry: chaosPolicy(), Metrics: reg, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer itertest.Goroutines(t)()

	schedules := []string{
		"seed=1;fetch@1=drop",
		"seed=2;query@1=partial",
		"seed=3;load~drop=1",
		"seed=4;stall=1ms;fetch~stall=1",
	}
	var queries int64
	for _, src := range schedules {
		sched, err := wire.ParseSchedule(src)
		if err != nil {
			t.Fatalf("schedule %q: %v", src, err)
		}
		sys.Srv.SetFaults(sched.Injector())
		for _, q := range SeedQueries[:2] {
			plan, err := tsql.Parse(q, sys.MW.Cat)
			if err != nil {
				t.Fatal(err)
			}
			_, _, rerr := sys.MW.Run(plan)
			queries++
			if rerr != nil && !typedFailure(rerr) {
				t.Fatalf("untyped failure under %q: %v", src, rerr)
			}
			root := sys.MW.LastTrace()
			if root == nil {
				t.Fatalf("no trace after query under %q", src)
			}
			if un := telemetry.UnfinishedSpans(root); len(un) != 0 {
				t.Fatalf("unfinished spans under %q: %v\n%s", src, un, root.Render())
			}
		}
		sys.Srv.SetFaults(nil)
	}

	// Histogram counts match the work: every Run — success or typed
	// failure — is exactly one end-to-end latency observation.
	if got := reg.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets).Count(); got != queries {
		t.Fatalf("tango_query_seconds count = %d, want %d", got, queries)
	}
	// And one flight entry per query (ring cap far above 8).
	if got := sys.Flight.Len(); int64(got) != queries {
		t.Fatalf("flight holds %d entries, want %d", got, queries)
	}
	for i, e := range sys.Flight.Entries() {
		if e.Root == nil {
			t.Fatalf("flight entry %d has no span snapshot", i)
		}
		if !e.Root.Done {
			t.Fatalf("flight entry %d holds an unfinished root", i)
		}
		if _, err := strconv.ParseUint(e.TraceID, 16, 64); err != nil {
			t.Fatalf("flight entry %d trace ID %q does not parse: %v", i, e.TraceID, err)
		}
	}
	// No remote spans left stranded in the collector: every trace was
	// taken (stitched) by its query's finish.
	if n := sys.Collector.Pending(); n != 0 {
		t.Fatalf("%d trace(s) stranded in the server collector", n)
	}
}

// TestCrashFlightRecovery arms a WAL crash point under a traced,
// durable system, kills the store with a load into a permanent table,
// lets a T^D query die on the dead store, and verifies the reopened
// system (a) loads the pre-crash flight log with the dying query's
// trace present and well-formed, (b) links it into the recovery
// startup span, and (c) names none of the temp tables that lived at
// the kill.
func TestCrashFlightRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(dir, nil)
	cfg.Trace = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A clean traced query first, so the flight log has a healthy entry
	// before the dying one.
	plan, err := tsql.Parse(SeedQueries[0], sys.MW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.MW.Run(plan); err != nil {
		t.Fatalf("fault-free query: %v", err)
	}

	// A session's temp table lives across the kill, beside a permanent
	// table created while it lives.
	if err := sys.MW.Conn.CreateTable(sys.MW.Conn.TempName(),
		types.Schema{Cols: []types.Column{{Name: "X", Kind: types.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MW.Conn.Exec("CREATE TABLE FLIGHTT (ID INTEGER, PAD VARCHAR(40))"); err != nil {
		t.Fatal(err)
	}

	// Arm the crash: the next WAL write kills the store. A T^D writes
	// no WAL (its temp table is unlogged), so a load into the permanent
	// table is the writer; the plan that ships its aggregate down
	// through T^D then dies on the dead store.
	sys.DB.FileDisk().SetCrashScript(storage.NewCrashScript(
		storage.CrashPoint{Target: storage.TargetWAL, Nth: 1, Mode: storage.CrashOmit}))
	if _, err := sys.MW.Conn.Load("FLIGHTT", loadRows(50)); err == nil {
		t.Fatal("the load survived the armed WAL crash point")
	}
	withTD := Q2Plans(Day(1996, time.January, 1))[0]
	var dying *telemetry.Span
	if _, err := sys.MW.Execute(withTD.Plan.Clone()); err != nil {
		dying = sys.MW.LastTrace()
	}
	if dying == nil {
		t.Fatal("the T^D query did not die on the dead store")
	}
	dyingID := fmt.Sprintf("%016x", dying.TraceID())

	// Reopen through the full stack. NewSystem reads the previous
	// process's flight log before truncating it for this process.
	rcfg := crashConfig(dir, nil)
	rcfg.Trace = true
	rec, err := NewSystem(rcfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := rec.Close(); err != nil {
			t.Errorf("close recovered system: %v", err)
		}
	}()
	noTempNamed(t, dir, rec)

	if len(rec.PreCrashFlight) == 0 {
		t.Fatal("reopened system loaded no pre-crash flight entries")
	}
	found := false
	for i, e := range rec.PreCrashFlight {
		if _, err := strconv.ParseUint(e.TraceID, 16, 64); err != nil {
			t.Fatalf("pre-crash entry %d trace ID %q does not parse: %v", i, e.TraceID, err)
		}
		if e.Root == nil || e.Root.Name != "query" {
			t.Fatalf("pre-crash entry %d is not a query span snapshot: %+v", i, e.Root)
		}
		if e.TraceID == dyingID {
			found = true
			if e.Error == "" {
				t.Fatal("the dying query's flight entry records no error")
			}
		}
	}
	if !found {
		t.Fatalf("dying query's trace %s not in the pre-crash flight log", dyingID)
	}

	// The recovery startup span links to the pre-crash flight log.
	startup := rec.MW.LastTrace()
	if startup == nil {
		t.Fatal("reopened system has no startup trace")
	}
	var flightChild *telemetry.Span
	for _, c := range startup.Children() {
		if c.Name == "flight" {
			flightChild = c
		}
	}
	if flightChild == nil {
		t.Fatalf("recovery span has no flight link:\n%s", startup.Render())
	}
	if got := attrVal(flightChild, "entries"); got != fmt.Sprint(len(rec.PreCrashFlight)) {
		t.Fatalf("flight link entries = %q, want %d", got, len(rec.PreCrashFlight))
	}
	if got := attrVal(flightChild, "last_trace_id"); got != dyingID {
		t.Fatalf("flight link last_trace_id = %q, want %s", got, dyingID)
	}
	if attrVal(flightChild, "last_error") == "" {
		t.Fatal("flight link records no last_error for the dying query")
	}

	// The recovered store still answers; its queries trace and record
	// into a fresh flight log.
	plan, err = tsql.Parse(SeedQueries[0], rec.MW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rec.MW.Run(plan); err != nil {
		t.Fatalf("query over recovered store: %v", err)
	}
	if un := telemetry.UnfinishedSpans(rec.MW.LastTrace()); len(un) != 0 {
		t.Fatalf("unfinished spans after recovery query: %v", un)
	}
	if rec.Flight.Len() != 1 {
		t.Fatalf("fresh flight log holds %d entries, want 1", rec.Flight.Len())
	}
}
