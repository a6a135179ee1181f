package server

import (
	"context"
	"errors"
	"testing"

	"tango/internal/engine"
	"tango/internal/types"
	"tango/internal/wire"
)

// ask runs one request on the server's own session.
func ask(s *Server, req wire.Request) (wire.Reply, error) {
	return s.local.Handle(context.Background(), req)
}

// exec runs one non-SELECT statement.
func exec(s *Server, sql string) error {
	_, err := ask(s, wire.Request{Op: wire.MsgExec, Name: sql})
	return err
}

func testServer(t *testing.T) *Server {
	t.Helper()
	db := engine.Open(engine.Config{})
	s := New(db, wire.Latency{})
	if err := exec(s, "CREATE TABLE T (K INTEGER, V VARCHAR(20))"); err != nil {
		t.Fatal(err)
	}
	if err := exec(s, "INSERT INTO T VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e')"); err != nil {
		t.Fatal(err)
	}
	return s
}

func drainCursor(t *testing.T, c *Cursor) []types.Tuple {
	t.Helper()
	var rows []types.Tuple
	for {
		payload, err := c.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			break
		}
		batch, err := wire.DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range batch {
			rows = append(rows, r.Clone())
		}
	}
	return rows
}

func TestCursorBatches(t *testing.T) {
	s := testServer(t)
	cur, err := s.Query("SELECT K FROM T ORDER BY K", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rows := drainCursor(t, cur)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i+1) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Fetch after exhaustion stays nil.
	payload, err := cur.FetchBatch()
	if err != nil || payload != nil {
		t.Errorf("post-EOF fetch: %v, %v", payload, err)
	}
}

func TestCursorSchema(t *testing.T) {
	s := testServer(t)
	cur, err := s.Query("SELECT K, V FROM T", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Schema().Len() != 2 {
		t.Errorf("schema: %v", cur.Schema())
	}
}

func TestLoadAndCounters(t *testing.T) {
	s := testServer(t)
	if err := exec(s, "CREATE TABLE L (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	payload := wire.EncodeBatch(nil, []types.Tuple{{types.Int(10)}, {types.Int(20)}})
	rep, err := ask(s, wire.Request{Op: wire.MsgLoad, Name: "L", Body: payload})
	if err != nil || rep.N != 2 {
		t.Fatalf("load: %d, %v", rep.N, err)
	}
	queries, rowsOut, rowsIn := s.Counters()
	if rowsIn != 2 {
		t.Errorf("rowsIn = %d", rowsIn)
	}
	cur, err := s.Query("SELECT K FROM L", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := drainCursor(t, cur)
	cur.Close()
	if len(rows) != 2 {
		t.Fatalf("loaded rows = %d", len(rows))
	}
	queries2, rowsOut2, _ := s.Counters()
	if queries2 != queries+1 || rowsOut2 != rowsOut+2 {
		t.Errorf("counters: %d/%d → %d/%d", queries, rowsOut, queries2, rowsOut2)
	}
}

func TestTableStatsComputedOnDemand(t *testing.T) {
	s := testServer(t)
	rep, err := ask(s, wire.Request{Op: wire.MsgStats, Name: "T", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats := rep.Stats
	if stats.Cardinality != 5 {
		t.Errorf("cardinality = %d", stats.Cardinality)
	}
	if stats.Column("K").Histogram == nil {
		t.Error("on-demand ANALYZE should honor histogram buckets")
	}
	// Second call serves the cached catalog entry.
	rep, err = ask(s, wire.Request{Op: wire.MsgStats, Name: "T"})
	if err != nil || rep.Stats != stats {
		t.Error("cached stats expected")
	}
}

func TestErrorPaths(t *testing.T) {
	s := testServer(t)
	if _, err := s.Query("SELECT * FROM NOPE", 0); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := ask(s, wire.Request{Op: wire.MsgLoad, Name: "NOPE", Body: wire.EncodeBatch(nil, nil)}); err == nil {
		t.Error("load into missing table should fail")
	}
	if _, err := ask(s, wire.Request{Op: wire.MsgLoad, Name: "T", Body: []byte{0xFF, 0xFF}}); err == nil {
		t.Error("corrupt payload should fail")
	}
	if _, err := ask(s, wire.Request{Op: wire.MsgSchema, Name: "NOPE"}); err == nil {
		t.Error("missing schema should fail")
	}
	if _, err := ask(s, wire.Request{Op: wire.MsgOK}); err == nil {
		t.Error("a reply type is not a request")
	}
}

func TestConcurrentReaders(t *testing.T) {
	s := testServer(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 25; i++ {
				cur, err := s.Query("SELECT K, V FROM T WHERE K > 1", 2)
				if err != nil {
					done <- err
					return
				}
				n := 0
				for {
					payload, err := cur.FetchBatch()
					if err != nil {
						done <- err
						return
					}
					if payload == nil {
						break
					}
					batch, err := wire.DecodeBatch(payload)
					if err != nil {
						done <- err
						return
					}
					n += len(batch)
				}
				cur.Close()
				if n != 4 {
					done <- errRows(n)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errRows int

func (e errRows) Error() string { return "unexpected row count" }

// TestTempLedger: a session's ledger follows the CREATE and DROP
// statements it runs. A temp created twice (IF NOT EXISTS) is entered
// once and a dropped one leaves; close collects what is left, and a
// create that lands after the close is dropped at once. A DROP clears
// the table's load mark, so the same load sequence into the recreated
// table is applied, not taken for a duplicate.
func TestTempLedger(t *testing.T) {
	s := New(engine.Open(engine.Config{}), wire.Latency{})
	se := s.NewSession()
	run := func(req wire.Request) error {
		_, err := se.Handle(context.Background(), req)
		return err
	}
	load := wire.Request{Op: wire.MsgLoad, Name: TempPrefix + "b", Seq: 7, Body: wire.EncodeBatch(nil, []types.Tuple{{types.Int(1)}})}
	for _, req := range []wire.Request{
		{Op: wire.MsgExec, Name: "CREATE TABLE IF NOT EXISTS " + TempPrefix + "a (K INTEGER)"},
		{Op: wire.MsgExec, Name: "CREATE TABLE IF NOT EXISTS " + TempPrefix + "a (K INTEGER)"},
		{Op: wire.MsgExec, Name: "CREATE TABLE " + TempPrefix + "b (K INTEGER)"},
		load,
		{Op: wire.MsgExec, Name: "DROP TABLE " + TempPrefix + "b"},
		{Op: wire.MsgExec, Name: "CREATE TABLE " + TempPrefix + "b (K INTEGER)"},
		load,
		{Op: wire.MsgExec, Name: "DROP TABLE IF EXISTS " + TempPrefix + "b"},
	} {
		if err := run(req); err != nil {
			t.Fatalf("%s %s: %v", wire.MsgName(req.Op), req.Name, err)
		}
		if req.Op == wire.MsgLoad {
			if r, err := s.db.QueryAll("SELECT COUNT(*) FROM " + TempPrefix + "b"); err != nil || r.Tuples[0][0].AsInt() != 1 {
				t.Fatalf("after load: %v, %v; want 1 row", r, err)
			}
		}
	}
	if n, err := se.Close(); n != 1 || err != nil {
		t.Fatalf("close collected %d (%v), want 1", n, err)
	}
	late := run(wire.Request{Op: wire.MsgExec, Name: "CREATE TABLE IF NOT EXISTS " + TempPrefix + "c (K INTEGER)"})
	if !errors.Is(late, ErrShutdown) || len(s.TempTables()) != 0 {
		t.Fatalf("create after close: %v, temps %v; want ErrShutdown and none", late, s.TempTables())
	}
}
