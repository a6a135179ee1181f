package tango

import (
	"errors"
	"testing"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/uis"
	"tango/internal/wire"
)

// metaTransports opens connections to one server over each transport.
var metaTransports = []struct {
	name string
	dial func(t *testing.T, srv *server.Server) func() *client.Conn
}{
	{"loopback", func(_ *testing.T, srv *server.Server) func() *client.Conn {
		return func() *client.Conn { return client.Connect(srv) }
	}},
	{"tcp", func(t *testing.T, srv *server.Server) func() *client.Conn {
		ts, err := server.ListenAndServe(srv, "127.0.0.1:0", server.TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ts.Close() })
		return func() *client.Conn {
			c, err := client.Dial(ts.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}},
}

// staleQuery is the statement session A runs before and after another
// session changes POSITION's metadata.
const staleQuery = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"

// childSpans counts the children of sp named name.
func childSpans(sp *telemetry.Span, name string) int {
	n := 0
	for _, c := range sp.Children() {
		if c.Name == name {
			n++
		}
	}
	return n
}

// reversedPositions returns POSITION's schema and rows with the column
// order reversed.
func reversedPositions(rows []types.Tuple) (types.Schema, []types.Tuple) {
	cols := uis.PositionSchema().Cols
	rev := make([]types.Column, len(cols))
	for i, c := range cols {
		rev[len(cols)-1-i] = c
	}
	out := make([]types.Tuple, len(rows))
	for i, r := range rows {
		t := make(types.Tuple, len(r))
		for j, v := range r {
			t[len(r)-1-j] = v
		}
		out[i] = t
	}
	return types.NewSchema(rev...), out
}

// TestStaleMetadataReplans: between two statements of session A,
// session B changes POSITION's metadata on its own connection — (a) a
// load and an ANALYZE, (b) a drop and a recreate with the columns in
// another order, reloaded. A's cache still holds the old schema and
// statistics, so A's plan reaches the DBMS under the old metadata
// epoch, is refused, and is planned once more from fresh metadata; the
// result equals a fresh all-DBMS run, the re-plan is counted and
// traced once, and no fallback candidate (costed on the same stale
// metadata) is tried. A forced plan run by the Executor returns the
// typed refusal instead of running.
func TestStaleMetadataReplans(t *testing.T) {
	changes := []struct {
		name   string
		change func(t *testing.T, b *client.Conn)
	}{
		{"load and analyze", func(t *testing.T, b *client.Conn) {
			if _, err := b.Load("POSITION", (&uis.Generator{Seed: 2}).Positions(200)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Exec("ANALYZE POSITION HISTOGRAM 8"); err != nil {
				t.Fatal(err)
			}
		}},
		{"recreate with reordered columns", func(t *testing.T, b *client.Conn) {
			if err := b.DropTable("POSITION"); err != nil {
				t.Fatal(err)
			}
			schema, rows := reversedPositions((&uis.Generator{Seed: 3}).Positions(250))
			if err := b.CreateTable("POSITION", schema); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Load("POSITION", rows); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tr := range metaTransports {
		for _, ch := range changes {
			t.Run(tr.name+"/"+ch.name, func(t *testing.T) {
				srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
				dial := tr.dial(t, srv)
				b := dial()
				defer b.Close()
				if _, err := uis.Load(b, 300, 100, 8); err != nil {
					t.Fatal(err)
				}
				a := dial()
				defer a.Close()
				reg := telemetry.NewRegistry()
				mw := OpenConn(a, Options{HistogramBuckets: 8, Metrics: reg, CheckPlans: true})
				replans := reg.Counter("tango_plan_replans_total", nil)
				run := func() *rel.Relation {
					t.Helper()
					plan, err := tsql.Parse(staleQuery, mw.Cat)
					if err != nil {
						t.Fatal(err)
					}
					out, res, err := mw.Run(plan)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Candidates) < 2 {
						t.Fatalf("%d candidates: the fallback path is not exercised", len(res.Candidates))
					}
					return out
				}
				queries := reg.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets)
				optimizations := reg.Histogram("tango_optimize_seconds", nil, telemetry.DurationBuckets)
				run() // warms A's metadata cache
				q0, o0 := queries.Count(), optimizations.Count()
				ch.change(t, b)
				got := run()
				if n := replans.Value(); n != 1 {
					t.Errorf("tango_plan_replans_total = %d, want 1", n)
				}
				// One query, planned twice.
				if q, o := queries.Count()-q0, optimizations.Count()-o0; q != 1 || o != 2 {
					t.Errorf("the re-planned query observed tango_query_seconds %d times and tango_optimize_seconds %d times, want 1 and 2", q, o)
				}
				tr := mw.LastTrace()
				if n := childSpans(tr, "replan"); n != 1 {
					t.Errorf("%d replan spans, want 1:\n%s", n, tr.Render())
				}
				if n := childSpans(tr, "fallback"); n != 0 {
					t.Errorf("a stale refusal took %d fallback(s):\n%s", n, tr.Render())
				}

				ref := client.Connect(srv)
				defer ref.Close()
				refCat := ConnCatalog{Conn: ref}
				initial, err := tsql.Parse(staleQuery, refCat)
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&Executor{Conn: ref, Cat: refCat}).Run(initial)
				if err != nil {
					t.Fatal(err)
				}
				if want.Cardinality() == 0 || !rel.EqualAsMultisets(got, want) {
					t.Fatalf("after the re-plan: %d rows, the all-DBMS reference %d", got.Cardinality(), want.Cardinality())
				}

				// A forced plan over A's (again stale) cache is refused.
				forced, err := tsql.Parse(staleQuery, mw.Cat)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Exec("ANALYZE POSITION"); err != nil {
					t.Fatal(err)
				}
				_, err = (&Executor{Conn: a, Cat: mw.Cat}).Run(forced)
				if !errors.Is(err, server.ErrStaleMetadata) {
					t.Fatalf("forced plan on stale metadata: %v, want ErrStaleMetadata", err)
				}
				if _, err := (&Executor{Conn: a, Cat: mw.Cat}).Run(forced); err != nil {
					t.Fatalf("forced plan after the refusal emptied the cache: %v", err)
				}
			})
		}
	}
}

// TestStaleRefusalTakesNoFallback: runWithFallback leaves a stale
// metadata refusal to the caller's re-plan rather than re-siting the
// query onto another candidate costed on the same metadata.
func TestStaleRefusalTakesNoFallback(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	b := client.Connect(srv)
	defer b.Close()
	if _, err := uis.Load(b, 300, 100, 8); err != nil {
		t.Fatal(err)
	}
	mw := Open(srv, Options{HistogramBuckets: 8, CheckPlans: true})
	plan, err := tsql.Parse(staleQuery, mw.Cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mw.Optimize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fallbackPlan(res, errors.New("any")); !ok {
		t.Fatal("no fallback candidate: the test exercises nothing")
	}
	if _, err := b.Exec("ANALYZE POSITION"); err != nil {
		t.Fatal(err)
	}
	root := telemetry.NewSpan("query")
	_, err = mw.ExecuteResult(res, root)
	if !errors.Is(err, server.ErrStaleMetadata) || client.Degradable(err) {
		t.Fatalf("ExecuteResult on stale metadata: %v (degradable %v), want a non-degradable ErrStaleMetadata", err, client.Degradable(err))
	}
	if n := childSpans(root, "fallback"); n != 0 {
		t.Fatalf("a stale refusal took %d fallback(s):\n%s", n, root.Render())
	}
}

// TestMetadataFetchedOncePerEpoch: the connection answers schema and
// statistics reads from its cache while the DBMS metadata epoch holds.
// Running TestQueryReadsCatalogOnce's four statements twice fetches
// each table's schema and statistics once, on the first pass (counted
// at the server); an ANALYZE through the connection makes the next
// pass fetch each table exactly once more; a T^D temp table's schema is
// never cached.
func TestMetadataFetchedOncePerEpoch(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	mw := Open(srv, Options{HistogramBuckets: 8, Metrics: telemetry.NewRegistry(), CheckPlans: true})
	if _, err := uis.Load(mw.Conn, 300, 100, 8); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID",
		"VALIDTIME COALESCE SELECT PosID, EmpName, T1, T2 FROM POSITION",
		"VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B WHERE A.PosID = B.PosID",
		"SELECT P.PosID, E.EmpName FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID",
	}
	fetches := func() (schemas, stats int64) {
		return srv.Requests(wire.MsgSchema), srv.Requests(wire.MsgStats)
	}
	pass := func(name string, wantSchemas, wantStats int64) {
		t.Helper()
		s0, st0 := fetches()
		for _, q := range queries {
			plan, err := tsql.Parse(q, mw.Cat)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := mw.Run(plan); err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
		}
		s1, st1 := fetches()
		if s1-s0 != wantSchemas || st1-st0 != wantStats {
			t.Errorf("%s: %d schema and %d statistics fetches reached the server, want %d and %d",
				name, s1-s0, st1-st0, wantSchemas, wantStats)
		}
	}
	// Two tables, POSITION and EMPLOYEE: one schema and one statistics
	// fetch each per epoch.
	pass("first pass", 2, 2)
	pass("second pass", 0, 0)
	if _, err := mw.Conn.Exec("ANALYZE POSITION"); err != nil {
		t.Fatal(err)
	}
	pass("after ANALYZE", 2, 2)

	temp := mw.Conn.TempName()
	if err := mw.Conn.CreateTable(temp, types.NewSchema(types.Column{Name: "K", Kind: types.KindInt})); err != nil {
		t.Fatal(err)
	}
	s0, _ := fetches()
	for range 2 {
		if _, err := mw.Conn.TableSchema(temp); err != nil {
			t.Fatal(err)
		}
	}
	if s1, _ := fetches(); s1-s0 != 2 {
		t.Errorf("a temp table's schema read twice reached the server %d times, want 2", s1-s0)
	}
	if err := mw.Conn.DropTable(temp); err != nil {
		t.Fatal(err)
	}
	// Temp-table DDL leaves the epoch, and so the cache, alone.
	pass("after temp-table DDL", 0, 0)

	// A forced T^D plan through the Executor leaves no temp table
	// schema behind either.
	forced := algebra.TM(algebra.TD(algebra.TM(algebra.Scan("POSITION", ""))))
	if _, err := (&Executor{Conn: mw.Conn, Cat: mw.Cat}).Run(forced); err != nil {
		t.Fatal(err)
	}
	pass("after a T^D plan", 0, 0)
}
