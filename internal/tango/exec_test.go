package tango

import (
	"maps"
	"strings"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/sqlparser"
	"tango/internal/types"
	"tango/internal/wire"
)

// setup builds a DBMS with the paper's POSITION relation (Figure 3a).
func setup(t *testing.T) (*client.Conn, *Executor) {
	t.Helper()
	conn := client.Connect(server.New(engine.Open(engine.Config{}), wire.Latency{}))
	return conn, figure3a(t, conn)
}

// figure3a creates the paper's POSITION relation over conn and returns
// an executor on it.
func figure3a(t *testing.T, conn *client.Conn) *Executor {
	t.Helper()
	for _, sql := range []string{
		"CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)",
		"INSERT INTO POSITION VALUES (1,'Tom',12.0,2,20),(1,'Jane',9.0,5,25),(2,'Tom',12.0,5,10)",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	return &Executor{Conn: conn, Cat: ConnCatalog{Conn: conn}}
}

// figure3b is the paper's expected query result (with PayRate added to
// POSITION, projected away in the plans).
var figure3b = [][]int64{
	// PosID, T1, T2, COUNT (EmpName checked separately)
	{1, 2, 5, 1},
	{1, 5, 20, 2},
	{1, 5, 20, 2},
	{1, 20, 25, 1},
	{2, 5, 10, 1},
}

// paperPlanAllDBMS is Figure 4(a): everything in the DBMS.
func paperPlanAllDBMS() *algebra.Node {
	a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2")
	taggr := algebra.TAggr(a, []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
	tj := algebra.TJoin(taggr, b, []string{"PosID"}, []string{"B.PosID"})
	return algebra.TM(algebra.Sort(tj, "PosID", "T1"))
}

// paperPlanMWAggr is Figure 4(b): temporal aggregation in the
// middleware, the join back in the DBMS.
func paperPlanMWAggr() *algebra.Node {
	a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2")
	sorted := algebra.Sort(a, "PosID", "T1") // SORT^D below the T^M
	taggr := algebra.TAggr(algebra.TM(sorted), []string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
	tj := algebra.TJoin(algebra.TD(taggr), b, []string{"PosID"}, []string{"B.PosID"})
	return algebra.TM(algebra.Sort(tj, "PosID", "T1"))
}

// paperPlanAllMW runs aggregation and join in the middleware.
func paperPlanAllMW() *algebra.Node {
	a := algebra.ProjectCols(algebra.Scan("POSITION", "A"), "A.PosID", "A.T1", "A.T2")
	taggr := algebra.TAggr(algebra.TM(algebra.Sort(a, "PosID", "T1")),
		[]string{"PosID"}, algebra.Agg{Fn: "COUNT", Col: "PosID"})
	b := algebra.ProjectCols(algebra.Scan("POSITION", "B"), "B.PosID", "B.EmpName", "B.T1", "B.T2")
	tj := algebra.TJoin(taggr, algebra.TM(algebra.Sort(b, "B.PosID")),
		[]string{"PosID"}, []string{"B.PosID"})
	return algebra.Sort(tj, "PosID", "T1")
}

func checkFigure3b(t *testing.T, got *rel.Relation, plan string) {
	t.Helper()
	if got.Cardinality() != len(figure3b) {
		t.Fatalf("%s: %d rows, want %d\n%v", plan, got.Cardinality(), len(figure3b), got)
	}
	pos := got.Schema.MustIndex("PosID")
	t1 := got.Schema.MustIndex("T1")
	t2 := got.Schema.MustIndex("T2")
	cnt := got.Schema.MustIndex("COUNTofPosID")
	for i, w := range figure3b {
		r := got.Tuples[i]
		if r[pos].AsInt() != w[0] || r[t1].AsInt() != w[1] || r[t2].AsInt() != w[2] || r[cnt].AsInt() != w[3] {
			t.Fatalf("%s row %d = %v, want %v", plan, i, r, w)
		}
	}
	// Tom precedes Jane within [5,20) or vice versa — both valid under
	// the plan's sort keys; just check both names appear.
	names := map[string]bool{}
	ni := got.Schema.ColumnIndex("B.EmpName")
	if ni < 0 {
		ni = got.Schema.MustIndex("EmpName")
	}
	for _, r := range got.Tuples {
		names[r[ni].AsString()] = true
	}
	if !names["Tom"] || !names["Jane"] {
		t.Errorf("%s: names missing: %v", plan, names)
	}
}

func TestPaperQueryAllThreePartitionings(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan func() *algebra.Node
	}{
		{"all-DBMS (Fig 4a)", paperPlanAllDBMS},
		{"MW aggregation (Fig 4b)", paperPlanMWAggr},
		{"all-MW", paperPlanAllMW},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ex := setup(t)
			got, err := ex.Run(tc.plan())
			if err != nil {
				t.Fatal(err)
			}
			// Results may differ in column order across partitionings but
			// must agree on the Figure 3(b) values.
			got2 := got.Clone()
			got2.SortBy("PosID", "T1", "T2")
			checkFigure3b(t, got2, tc.name)
		})
	}
}

func TestPartitioningsAgreeOnLargerData(t *testing.T) {
	conn, ex := setup(t)
	// Add more rows for a denser event structure.
	if _, err := conn.Exec(`INSERT INTO POSITION VALUES
		(1,'Ann',11.0,8,30),(2,'Ann',11.0,1,7),(3,'Bob',8.0,4,9),
		(3,'Cat',8.5,6,14),(3,'Dan',9.5,2,5),(2,'Eve',10.0,6,22)`); err != nil {
		t.Fatal(err)
	}
	var results []*rel.Relation
	for _, plan := range []func() *algebra.Node{paperPlanAllDBMS, paperPlanMWAggr, paperPlanAllMW} {
		got, err := ex.Run(plan())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, normalize5(got))
	}
	for i := 1; i < len(results); i++ {
		if !rel.EqualAsMultisets(results[0], results[i]) {
			t.Fatalf("partitioning %d disagrees with 0:\n%v\nvs\n%v", i, results[0], results[i])
		}
	}
	if results[0].Cardinality() < 10 {
		t.Errorf("expected a rich result, got %d rows", results[0].Cardinality())
	}
}

// normalize5 projects a result to (PosID, T1, T2, COUNT, EmpName) and
// sorts it, so partitionings with different column orders compare.
func normalize5(r *rel.Relation) *rel.Relation {
	ni := r.Schema.ColumnIndex("B.EmpName")
	if ni < 0 {
		ni = r.Schema.MustIndex("EmpName")
	}
	idx := []int{
		r.Schema.MustIndex("PosID"), r.Schema.MustIndex("T1"),
		r.Schema.MustIndex("T2"), r.Schema.MustIndex("COUNTofPosID"), ni,
	}
	out := rel.New(r.Schema.Project(idx).Unqualified())
	for _, t := range r.Tuples {
		row := make(types.Tuple, len(idx))
		for i, j := range idx {
			row[i] = t[j]
		}
		out.Append(row)
	}
	out.SortBy("PosID", "T1", "T2", "EmpName")
	return out
}

func TestSelectionInMiddleware(t *testing.T) {
	_, ex := setup(t)
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE PayRate > 10")
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.Select(algebra.TM(algebra.Scan("POSITION", "")), sel.Where)
	got, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("FILTER^M: %v", got)
	}
}

func TestSelectionInDBMS(t *testing.T) {
	_, ex := setup(t)
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE PayRate > 10")
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.TM(algebra.Select(algebra.Scan("POSITION", ""), sel.Where))
	got, err := ex.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("FILTER^D: %v", got)
	}
}

func TestTransferFeedbackCollected(t *testing.T) {
	_, ex := setup(t)
	got, err := ex.Run(paperPlanMWAggr())
	if err != nil {
		t.Fatal(err)
	}
	_ = got
	fbs := ex.Feedback()
	if len(fbs) < 2 { // at least one TM and one TD
		t.Fatalf("feedback entries: %d", len(fbs))
	}
	var rows int64
	for _, fb := range fbs {
		rows += fb.Rows
	}
	if rows == 0 {
		t.Error("no rows recorded in feedback")
	}
}

func TestTempTablesDropped(t *testing.T) {
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	conn := client.Connect(srv)
	if _, err := conn.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), PayRate FLOAT, T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO POSITION VALUES (1,'Tom',12.0,2,20)"); err != nil {
		t.Fatal(err)
	}
	ex := &Executor{Conn: conn, Cat: ConnCatalog{Conn: conn}}
	if _, err := ex.Run(paperPlanMWAggr()); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.TableNames() {
		if strings.HasPrefix(name, "TMP_TANGO_") {
			t.Errorf("temp table %s not dropped", name)
		}
	}
}

// TestTransferDRoundTrips: a warm run of Figure 4(b), whose T^D ships
// the middleware aggregation back to the DBMS, sends its temp table
// three requests over either transport — the CREATE and the DROP
// (exec) and the load — and nothing else.
func TestTransferDRoundTrips(t *testing.T) {
	for _, tr := range metaTransports {
		t.Run(tr.name, func(t *testing.T) {
			srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
			conn := tr.dial(t, srv)()
			defer conn.Close()
			ex := figure3a(t, conn)
			if _, err := ex.Run(paperPlanMWAggr()); err != nil { // warms the metadata cache
				t.Fatal(err)
			}
			count := func() map[string]int64 {
				n := map[string]int64{}
				for m := wire.MsgCloseSession; m <= wire.MsgSchema; m++ {
					if k := srv.Requests(m); k > 0 {
						n[wire.MsgName(m)] = k
					}
				}
				return n
			}
			before := count()
			if _, err := ex.Run(paperPlanMWAggr()); err != nil {
				t.Fatal(err)
			}
			got, total := map[string]int64{}, int64(0)
			for msg, k := range count() {
				if d := k - before[msg]; d > 0 {
					got[msg] = d
					total += d
				}
			}
			// Two T^M cursors, each opened, fetched to end of stream
			// and closed.
			want := map[string]int64{"exec": 2, "load": 1, "query": 2, "fetch": 4, "close-cursor": 2}
			if !maps.Equal(got, want) || total != 11 {
				t.Errorf("requests %v (%d), want %v (11)", got, total, want)
			}
			if temps := srv.TempTables(); len(temps) != 0 {
				t.Errorf("temp tables left: %v", temps)
			}
		})
	}
}

func TestPlanValidationErrors(t *testing.T) {
	_, ex := setup(t)
	// Root in DBMS: must be rejected.
	if _, err := ex.Run(algebra.Scan("POSITION", "")); err == nil {
		t.Error("DBMS-resident root should be rejected")
	}
	// Unknown table.
	if _, err := ex.Run(algebra.TM(algebra.Scan("NOPE", ""))); err == nil {
		t.Error("unknown table should fail")
	}
}

// TestTransferMPaysARoundTripPerBatch: a T^M's cursor has one fetch on
// the wire at a time, read-ahead or not, so a transfer that fetches k
// batches over a link with round trip RTT takes at least k·RTT.
func TestTransferMPaysARoundTripPerBatch(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	conn := client.Connect(srv)
	schema := types.Schema{Cols: []types.Column{{Name: "K", Kind: types.KindInt}}}
	if err := conn.CreateTable("R", schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Tuple, 1000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	if _, err := conn.Load("R", rows); err != nil {
		t.Fatal(err)
	}
	const rtt = 4 * time.Millisecond
	srv.SetLatency(wire.Latency{RoundTrip: rtt})
	conn.Prefetch = 50 // 20 batches
	ex := &Executor{Conn: conn, Cat: ConnCatalog{Conn: conn}}
	start := time.Now()
	got, err := ex.Run(algebra.TM(algebra.Scan("R", "")))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != len(rows) {
		t.Fatalf("%d rows, want %d", got.Cardinality(), len(rows))
	}
	k := ex.Feedback()[0].Batches
	if k != 20 {
		t.Fatalf("%d batches, want 20", k)
	}
	if elapsed < time.Duration(k)*rtt {
		t.Fatalf("%d batches took %v, less than %d round trips of %v", k, elapsed, k, rtt)
	}
}
