package client

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

func testConn(t *testing.T) *Conn {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	c := Connect(srv)
	if _, err := c.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("INSERT INTO POSITION VALUES (1,'Tom',2,20),(1,'Jane',5,25),(2,'Tom',5,10)"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBatchingAcrossPrefetch(t *testing.T) {
	c := testConn(t)
	for _, prefetch := range []int{1, 2, 256} {
		c.Prefetch = prefetch
		r, fb, err := c.QueryAll("SELECT EmpName FROM POSITION")
		if err != nil {
			t.Fatal(err)
		}
		if r.Cardinality() != 3 {
			t.Fatalf("prefetch %d: %d rows", prefetch, r.Cardinality())
		}
		if fb.Rows != 3 {
			t.Errorf("prefetch %d feedback: %+v", prefetch, fb)
		}
	}
}

func TestLatencyCharged(t *testing.T) {
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{RoundTrip: 5 * time.Millisecond})
	c := Connect(srv)
	start := time.Now()
	if _, err := c.Exec("CREATE TABLE T (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Error("round-trip latency not charged")
	}
}

// TestTempNamesUnique: a temp name carries its session's ID, so names
// are unique across the connections of a server even when they come
// from different client processes; a temp table is created IF NOT
// EXISTS, and a repeated name would reuse another session's table.
func TestTempNamesUnique(t *testing.T) {
	c := testConn(t)
	d := Connect(c.be.(*loopback).srv)
	seen := map[string]bool{}
	for _, conn := range []*Conn{c, d, c, d} {
		name := conn.TempName()
		if seen[name] || !strings.HasPrefix(name, fmt.Sprintf("%s%d_", server.TempPrefix, conn.SessionID())) {
			t.Errorf("TempName %s repeated or not under session %d", name, conn.SessionID())
		}
		seen[name] = true
	}
}

// TestAbandonedCreateKeepsLoadedTemp: a temp table's create attempt
// stalls past its deadline, its retry creates the table and the load
// fills it, and then the abandoned attempt lands. It must leave the
// loaded rows as they are.
func TestAbandonedCreateKeepsLoadedTemp(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	c := Connect(srv)
	sched, err := wire.ParseSchedule("seed=1;stall=200ms;exec@1=stall")
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(sched.Injector())
	c.Retry = RetryPolicy{MaxAttempts: 3, OpTimeout: 20 * time.Millisecond}
	name := c.TempName()
	if err := c.CreateTable(name, types.NewSchema(types.Column{Name: "K", Kind: types.KindInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(name, []types.Tuple{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond) // the stalled attempt lands
	r, _, err := c.QueryAll("SELECT COUNT(*) FROM " + name)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tuples[0][0].AsInt(); got != 3 {
		t.Fatalf("COUNT(*) = %d after the abandoned create landed, want 3", got)
	}
	if n, err := c.be.Close(); n != 1 || err != nil || len(srv.TempTables()) != 0 {
		t.Fatalf("close collected %d (%v), left %v; want the one temp collected", n, err, srv.TempTables())
	}
}

func TestRowsIterableAsRelIterator(t *testing.T) {
	c := testConn(t)
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	var it rel.Iterator = rows // compile-time interface check
	got, err := rel.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 3 {
		t.Fatalf("drain: %v", got)
	}
}

func TestRowsCloseMidStream(t *testing.T) {
	c := testConn(t)
	c.Prefetch = 1
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	rd := rel.NewReader(rows)
	if _, ok, err := rd.Next(); err != nil || !ok {
		t.Fatalf("first row: %v %v", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Feedback is finalized on early close.
	fb := rows.Feedback()
	if fb.Rows != 1 || fb.Elapsed <= 0 {
		t.Errorf("feedback after early close: %+v", fb)
	}
	// Reading after close returns cleanly.
	if _, ok, _ := rd.Next(); ok {
		t.Error("Next after Close should not produce rows")
	}
}
