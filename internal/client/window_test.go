package client

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// windowConn loads a POSITION table with rows versions through the
// bulk loader and returns a connection with the given wire latency.
func windowConn(t *testing.T, rows int, lat wire.Latency) *Conn {
	t.Helper()
	db := engine.Open(engine.Config{})
	srv := server.New(db, wire.Latency{})
	c := Connect(srv)
	if _, err := c.Exec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), T1 INTEGER, T2 INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		tuples[i] = types.Tuple{
			types.Int(int64(i / 4)),
			types.Str(fmt.Sprintf("emp-%d", i%97)),
			types.Int(int64(i % 50)),
			types.Int(int64(50 + i%50)),
		}
	}
	if _, err := c.Load("POSITION", tuples); err != nil {
		t.Fatal(err)
	}
	srv.SetLatency(lat)
	return c
}

// TestQueryWindowedMatchesSync drains the same statement through
// Query, whose fetches decode into pooled slabs, and QueryAll, whose
// fetches decode into memory the relation keeps, across prefetch
// settings; the streams must be tuple-for-tuple identical and the
// transfer feedback must agree on rows and bytes.
func TestQueryWindowedMatchesSync(t *testing.T) {
	defer itertest.Goroutines(t)()
	c := windowConn(t, 1000, wire.Latency{RoundTrip: 100 * time.Microsecond})
	const sql = "SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1"
	for _, prefetch := range []int{7, 64, 256} {
		c.Prefetch = prefetch
		ref, refFB, err := c.QueryAll(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := c.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rel.Drain(rows)
		if err != nil {
			t.Fatalf("prefetch %d: %v", prefetch, err)
		}
		if !rel.EqualAsLists(got, ref) {
			t.Fatalf("prefetch %d: Query's stream differs from QueryAll's", prefetch)
		}
		if fb := rows.Feedback(); fb.Rows != refFB.Rows || fb.Bytes != refFB.Bytes || fb.Batches != refFB.Batches {
			t.Errorf("prefetch %d: feedback %+v, want %+v", prefetch, fb, refFB)
		}
	}
	c.Prefetch = 0
}

// TestQueryWindowedEarlyClose abandons read-ahead streams at several
// depths — before the first batch, mid-stream, and after exhaustion —
// and verifies every fetch loop joins.
func TestQueryWindowedEarlyClose(t *testing.T) {
	defer itertest.Goroutines(t)()
	c := windowConn(t, 1000, wire.Latency{RoundTrip: 200 * time.Microsecond})
	c.Prefetch = 32
	for round := 0; round < 20; round++ {
		rows, err := c.Query("SELECT PosID, T1, T2 FROM POSITION")
		if err != nil {
			t.Fatal(err)
		}
		rd := rel.NewReader(rows)
		for i := 0; i < 10*round; i++ {
			if _, ok, err := rd.Next(); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		// Close is idempotent with the fetch loop joined.
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.be.(*loopback).srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
}
