package client

import (
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
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

func TestTempNamesUnique(t *testing.T) {
	c := testConn(t)
	a, b := c.TempName(), c.TempName()
	if a == b {
		t.Errorf("TempName not unique: %s", a)
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
