package client

import (
	"errors"
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

// tcpServer builds a loaded server and serves it on a loopback TCP
// listener with a short resume grace (tests sever connections and want
// prompt GC) — closed via cleanup.
func tcpServer(t *testing.T, rows int, cfg server.TCPConfig) *server.TCPServer {
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
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("emp-%d", i%37)),
			types.Int(int64(i % 50)),
			types.Int(int64(50 + i%50)),
		}
	}
	if _, err := c.Load("POSITION", tuples); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if cfg.ResumeGrace == 0 {
		cfg.ResumeGrace = 200 * time.Millisecond
	}
	ts, err := server.ListenAndServe(srv, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.Close() })
	return ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPResumeAfterSever: a chaos proxy severs the connection mid
// query; the transport redials, resumes the session by token, and the
// sequence-numbered fetch replay finishes the stream — same rows, no
// leaks.
func TestTCPResumeAfterSever(t *testing.T) {
	ts := tcpServer(t, 2000, server.TCPConfig{ResumeGrace: 2 * time.Second})
	defer itertest.Goroutines(t)()
	srv := ts.Server()

	sched, err := wire.ParseSchedule("seed=3;fetch@4=drop;fetch@9=drop")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := wire.NewProxy(ts.Addr(), sched.Injector())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{
		MaxAttempts: 6,
		OpTimeout:   time.Second,
		Deadline:    10 * time.Second,
	}
	c.Prefetch = 64 // many fetch round trips, so the traps land mid-stream

	out, _, err := c.QueryAll("SELECT PosID FROM POSITION ORDER BY PosID")
	if err != nil {
		t.Fatalf("query across severed connections: %v", err)
	}
	if out.Cardinality() != 2000 {
		t.Fatalf("got %d rows, want 2000", out.Cardinality())
	}
	for i, row := range out.Tuples {
		if row[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v after replay", i, row)
		}
	}
	if proxy.Severed() == 0 {
		t.Fatal("proxy never severed the connection — the test exercised nothing")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after resume: %v", err)
	}
	waitFor(t, "sessions collected", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if n := srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
}

// TestTCPExpiredSessionGC: a session whose client vanishes for longer
// than the resume grace is garbage-collected server-side — cursors
// closed, temp tables dropped — and a later resume is refused.
func TestTCPExpiredSessionGC(t *testing.T) {
	ts := tcpServer(t, 100, server.TCPConfig{ResumeGrace: 50 * time.Millisecond})
	defer itertest.Goroutines(t)()
	srv := ts.Server()

	tr := DialTransport(ts.Addr())
	c, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	// An open cursor and a registered temp table ride the session.
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rel.NewReader(rows).Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	tmp := c.TempName()
	if err := c.CreateTable(tmp, rows.Schema()); err != nil {
		t.Fatal(err)
	}
	// Kill the transport: the session detaches and the grace expires.
	_ = tr.Close()
	waitFor(t, "expired session GC", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if n := srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) survived session GC", n)
	}
	if temps := srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables survived session GC: %v", temps)
	}
}

// TestTCPDrainTyped: a draining server answers new statements with
// ErrShutdown across the wire, and Close leaves no live sessions or
// connections behind.
func TestTCPDrainTyped(t *testing.T) {
	ts := tcpServer(t, 50, server.TCPConfig{DrainTimeout: 200 * time.Millisecond})
	defer itertest.Goroutines(t)()
	srv := ts.Server()
	srv.SetAdmission(server.AdmissionConfig{MaxInFlight: 4})

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.QueryAll("SELECT PosID FROM POSITION"); err != nil {
		t.Fatal(err)
	}
	srv.StartDrain()
	_, _, err = c.QueryAll("SELECT PosID FROM POSITION")
	if !errors.Is(err, server.ErrShutdown) {
		t.Fatalf("draining server answered %v, want ErrShutdown", err)
	}
	if err := ts.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitFor(t, "teardown", func() bool {
		return ts.LiveRemoteSessions() == 0 && ts.LiveConns() == 0 && srv.LiveSessions() == 0
	})
}

// TestTCPOverloadShedAndRetry: overloading a capacity-1 TCP server
// sheds with a typed ErrOverloaded whose server-suggested backoff the
// client honors — the shed statement succeeds on retry once capacity
// frees, with no session leaks.
func TestTCPOverloadShedAndRetry(t *testing.T) {
	ts := tcpServer(t, 100, server.TCPConfig{
		Admission: server.AdmissionConfig{MaxInFlight: 1, MaxQueue: 0, RetryAfter: 2 * time.Millisecond},
	})
	defer itertest.Goroutines(t)()
	srv := ts.Server()

	tr := DialTransport(ts.Addr())
	defer tr.Close()
	holder, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := holder.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rel.NewReader(rows).Next(); err != nil || !ok {
		t.Fatalf("holder first row: ok=%v err=%v", ok, err)
	}

	// Without retries: typed shed, backoff attached.
	bare, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	_, _, qerr := bare.QueryAll("SELECT PosID FROM POSITION")
	var ov *server.ErrOverloaded
	if !errors.As(qerr, &ov) {
		t.Fatalf("got %v, want ErrOverloaded", qerr)
	}
	if ov.Backoff != 2*time.Millisecond {
		t.Fatalf("suggested backoff %v, want 2ms", ov.Backoff)
	}
	shedBefore := srv.Shed()
	if shedBefore == 0 {
		t.Fatal("shed counter never moved")
	}

	// With retries: the cursor closes mid-backoff, so the retry lands.
	retrier, err := tr.Conn()
	if err != nil {
		t.Fatal(err)
	}
	retrier.Retry = RetryPolicy{
		MaxAttempts: 50,
		OpTimeout:   time.Second,
		Deadline:    10 * time.Second,
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_ = rows.Close()
	}()
	out, _, err := retrier.QueryAll("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatalf("retry after shed: %v", err)
	}
	if out.Cardinality() != 100 {
		t.Fatalf("got %d rows, want 100", out.Cardinality())
	}

	for _, c := range []*Conn{holder, bare, retrier} {
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	waitFor(t, "sessions collected", func() bool {
		return ts.LiveRemoteSessions() == 0 && srv.LiveSessions() == 0
	})
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after teardown", got)
	}
}

// TestTCPAbandonedFetchOwnsItsBuffer: the reader lands each reply in
// the scratch its call supplied. A fetch abandoned at its deadline
// still gets its (late) reply into its own buffer while the retry
// replays the batch into another, so under -race a buffer shared
// between them shows as a race, and the rows must arrive intact.
//
// Only the two stalled fetches may outlive the per-attempt deadline.
// The OPEN sorts 6000 rows, which took 9–14 ms under -race on a
// 2-vCPU Xeon, and the server serializes a retry behind the attempt it
// abandoned, so a deadline that one unstalled call can overrun makes
// every retry of that call overrun too. The deadline is several times
// that OPEN, and the stall several times the deadline.
func TestTCPAbandonedFetchOwnsItsBuffer(t *testing.T) {
	ts := tcpServer(t, 6000, server.TCPConfig{})
	inj := wire.NewFaultInjector(1).AddTrap(wire.OpFetch, 2, wire.KindStall).AddTrap(wire.OpFetch, 5, wire.KindStall)
	inj.StallTime = 300 * time.Millisecond
	ts.Server().SetFaults(inj)
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Retry = RetryPolicy{
		MaxAttempts: 8,
		OpTimeout:   100 * time.Millisecond,
		Deadline:    10 * time.Second,
	}
	out, _, err := c.QueryAll("SELECT PosID, EmpName FROM POSITION ORDER BY PosID")
	if err != nil {
		t.Fatal(err)
	}
	if out.Cardinality() != 6000 {
		t.Fatalf("got %d rows, want 6000", out.Cardinality())
	}
	for i, row := range out.Tuples {
		if row[0].AsInt() != int64(i) || row[1].AsString() != fmt.Sprintf("emp-%d", i%37) {
			t.Fatalf("row %d = %v", i, row)
		}
	}
	if inj.Injected() != 2 {
		t.Fatalf("%d stalls injected, want 2", inj.Injected())
	}
}
