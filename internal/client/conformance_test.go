package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/rel/itertest"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// confEnv is one transport under the conformance script: a fresh
// server, a connection to it over that transport, and the server
// itself for the steps that change its state from outside (faults,
// admission, drain).
type confEnv struct {
	t   *testing.T
	srv *server.Server
	c   *Conn
}

// ask sends one raw request through the transport seam and renders the
// outcome.
func (e *confEnv) ask(req wire.Request) string {
	return renderReply(e.c.be.call(context.Background(), req))
}

// renderReply renders every field of a reply (rows decoded), or the
// error by type and typed fields — never by a message that embeds
// transport detail.
func renderReply(rep wire.Reply, err error) string {
	if err != nil {
		return "error: " + renderErr(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d cursor=%d eos=%v", rep.N, rep.Cursor, rep.EOS)
	if rep.Schema.Cols != nil {
		fmt.Fprintf(&b, " schema=%v", rep.Schema)
	}
	if st := rep.Stats; st != nil {
		fmt.Fprintf(&b, " stats=%s card=%d", st.Table, st.Cardinality)
		keys := make([]string, 0, len(st.Columns))
		for k := range st.Columns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := st.Columns[k]
			buckets := 0
			if c.Histogram != nil {
				buckets = c.Histogram.NumBuckets()
			}
			fmt.Fprintf(&b, " %s[distinct=%d nulls=%d index=%v min=%v max=%v buckets=%d]",
				k, c.Distinct, c.NullCount, c.HasIndex, c.Min, c.Max, buckets)
		}
	}
	if rep.Body != nil {
		rows, derr := wire.DecodeBatch(rep.Body)
		if derr != nil {
			return "corrupt body: " + derr.Error()
		}
		fmt.Fprintf(&b, " rows=%v", rows)
	}
	return b.String()
}

func renderErr(err error) string {
	var oe *OpError
	var ov *server.ErrOverloaded
	var fe *wire.FaultError
	switch {
	case errors.As(err, &oe):
		return fmt.Sprintf("OpError{op=%s attempts=%d timeout=%v} <- %s", oe.Op, oe.Attempts, oe.Timeout, renderErr(oe.Err))
	case errors.As(err, &ov):
		return fmt.Sprintf("ErrOverloaded{%s backoff=%v queue=%d}", ov.Reason, ov.Backoff, ov.Queue)
	case errors.As(err, &fe):
		return fmt.Sprintf("FaultError{%s %s #%d}", fe.Op, fe.Kind, fe.Index)
	case errors.Is(err, server.ErrShutdown):
		return "ErrShutdown"
	case errors.Is(err, server.ErrStaleMetadata):
		return "ErrStaleMetadata"
	default:
		return err.Error()
	}
}

func intRows(ks ...int64) []types.Tuple {
	out := make([]types.Tuple, len(ks))
	for i, k := range ks {
		out[i] = types.Tuple{types.Int(k)}
	}
	return out
}

func (e *confEnv) faults(schedule string) {
	sched, err := wire.ParseSchedule(schedule)
	if err != nil {
		e.t.Fatal(err)
	}
	e.srv.SetFaults(sched.Injector())
}

// conformance is the one scripted op sequence: every row runs against
// the loopback and the TCP transport, must produce want on both, and
// therefore the same on both. It covers, per transport, what
// TestQueryOverWire, TestCreateLoadRoundTrip and TestStatsOverWire (in
// process) and TestTCPRoundTrip (over a socket) used to check one
// transport at a time.
var conformance = []struct {
	name string
	run  func(e *confEnv) string
	want string
}{
	{"exec create", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgExec, Name: "CREATE TABLE T (K INTEGER, V VARCHAR(20))"})
	}, "n=0 cursor=0 eos=false"},
	{"exec insert", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgExec, Name: "INSERT INTO T VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e')"})
	}, "n=5 cursor=0 eos=false"},
	{"exec semantic error", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgExec, Name: "INSERT INTO NOPE VALUES (1)"})
	}, "error: engine: no table NOPE"},

	// Cursor ids count up per session; the Conn-level rows below open
	// cursors 2-4 on the way.
	{"query", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K, V FROM T ORDER BY K", N: 2})
	}, "n=0 cursor=1 eos=false schema=(K INTEGER, V VARCHAR)"},
	{"fetch 1", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 1})
	}, "n=0 cursor=0 eos=false rows=[(1, a) (2, b)]"},
	{"fetch 1 replayed", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 1})
	}, "n=0 cursor=0 eos=false rows=[(1, a) (2, b)]"},
	{"fetch out of sync", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 3})
	}, "error: server: cursor out of sync: asked batch 3, at 1"},
	{"fetch 2", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 2})
	}, "n=0 cursor=0 eos=false rows=[(3, c) (4, d)]"},
	{"fetch 3", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 3})
	}, "n=0 cursor=0 eos=false rows=[(5, e)]"},
	{"fetch 4 is EOS", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 4})
	}, "n=0 cursor=0 eos=true"},
	{"EOS re-asked", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 1, Seq: 4})
	}, "n=0 cursor=0 eos=true"},
	{"fetch unknown cursor", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 9, Seq: 1})
	}, "error: server: unknown cursor 9"},
	{"close cursor", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgCloseCursor, Cursor: 1})
	}, "n=0 cursor=0 eos=false"},
	{"close cursor again", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgCloseCursor, Cursor: 1})
	}, "n=0 cursor=0 eos=false"},

	{"load", func(e *confEnv) string {
		e.ask(wire.Request{Op: wire.MsgExec, Name: "CREATE TABLE L (K INTEGER)"})
		return e.ask(wire.Request{Op: wire.MsgLoad, Name: "L", Seq: 77, Body: wire.EncodeBatch(nil, intRows(10, 20))})
	}, "n=2 cursor=0 eos=false"},
	{"load duplicate seq answered from the mark", func(e *confEnv) string {
		dup := e.ask(wire.Request{Op: wire.MsgLoad, Name: "L", Seq: 77, Body: wire.EncodeBatch(nil, intRows(10, 20))})
		r, _, err := e.c.QueryAll("SELECT K FROM L")
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%s; table holds %d rows", dup, r.Cardinality())
	}, "n=2 cursor=0 eos=false; table holds 2 rows"},
	{"load corrupt payload", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgLoad, Name: "L", Body: []byte{0xFF, 0xFF}})
	}, "error: wire: block at row 0: types: bad block header"},

	{"stats", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgStats, Name: "T", N: 4})
	}, "n=0 cursor=0 eos=false stats=T card=5" +
		" K[distinct=5 nulls=0 index=false min=1 max=5 buckets=4]" +
		" V[distinct=5 nulls=0 index=false min=a max=e buckets=0]"},
	{"schema", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgSchema, Name: "T"})
	}, "n=0 cursor=0 eos=false schema=(K INTEGER, V VARCHAR)"},
	{"schema of a missing table", func(e *confEnv) string {
		return e.ask(wire.Request{Op: wire.MsgSchema, Name: "NOPE"})
	}, "error: engine: no table NOPE"},

	{"QueryAll feedback", func(e *confEnv) string {
		e.c.Prefetch = 2
		defer func() { e.c.Prefetch = 0 }()
		r, fb, err := e.c.QueryAll("SELECT T.K, V FROM T ORDER BY K")
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %v fb rows=%d batches=%d bytes=%d", r.Schema, r.Tuples, fb.Rows, fb.Batches, fb.Bytes)
	}, "(K INTEGER, V VARCHAR) [(1, a) (2, b) (3, c) (4, d) (5, e)] fb rows=5 batches=3 bytes=41"},
	{"temp table: create, load, read back mangled, drop", func(e *confEnv) string {
		schema := types.NewSchema(types.Column{Name: "A.K", Kind: types.KindInt}, types.Column{Name: "V", Kind: types.KindString})
		const name = server.TempPrefix + "conf_rt"
		if err := e.c.CreateTable(name, schema); err != nil {
			return "create: " + err.Error()
		}
		fb, err := e.c.Load(name, []types.Tuple{{types.Int(1), types.Str("x")}, {types.Int(2), types.Str("y")}})
		if err != nil {
			return "load: " + err.Error()
		}
		r, _, err := e.c.QueryAll("SELECT A$K, V FROM " + name + " ORDER BY A$K")
		if err != nil {
			return "query: " + err.Error()
		}
		if err := e.c.DropTable(name); err != nil {
			return "drop: " + err.Error()
		}
		_, _, err = e.c.QueryAll("SELECT * FROM " + name)
		return fmt.Sprintf("loaded=%d %v; after drop: %v", fb.Rows, r.Tuples, err)
	}, "loaded=2 [(1, x) (2, y)]; after drop: engine: no table TMP_TANGO_conf_rt"},

	{"FaultError", func(e *confEnv) string {
		e.faults("seed=1;exec@1=drop")
		defer e.srv.SetFaults(nil)
		return e.ask(wire.Request{Op: wire.MsgExec, Name: "INSERT INTO L VALUES (99)"})
	}, "error: FaultError{exec drop #1}"},
	{"partial fetch arrives truncated, replay repairs it", func(e *confEnv) string {
		open := e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K FROM T ORDER BY K", N: 5})
		e.faults("seed=1;fetch@1=partial")
		torn := e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 5, Seq: 1})
		e.srv.SetFaults(nil)
		whole := e.ask(wire.Request{Op: wire.MsgFetch, Cursor: 5, Seq: 1})
		return strings.Join([]string{open, torn, whole, e.ask(wire.Request{Op: wire.MsgCloseCursor, Cursor: 5})}, " | ")
	}, "n=0 cursor=5 eos=false schema=(K INTEGER) | corrupt body: wire: block at row 0: types: truncated column" +
		" | n=0 cursor=0 eos=false rows=[(1) (2) (3) (4) (5)] | n=0 cursor=0 eos=false"},
	{"OpError", func(e *confEnv) string {
		e.faults("seed=1;stats~drop=1")
		defer e.srv.SetFaults(nil)
		e.c.Retry = RetryPolicy{MaxAttempts: 2}
		defer func() { e.c.Retry = RetryPolicy{} }()
		_, err := e.c.TableStats("T", 0)
		return renderReply(wire.Reply{}, err)
	}, "error: OpError{op=stats attempts=2 timeout=false} <- FaultError{stats drop #2}"},
	{"ErrOverloaded", func(e *confEnv) string {
		e.srv.SetAdmission(server.AdmissionConfig{MaxInFlight: 1, RetryAfter: 3 * time.Millisecond})
		defer e.srv.SetAdmission(server.AdmissionConfig{})
		holder := e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K FROM T"}) // holds the only unit
		shed := e.ask(wire.Request{Op: wire.MsgExec, Name: "INSERT INTO L VALUES (99)"})
		return strings.Join([]string{holder, shed, e.ask(wire.Request{Op: wire.MsgCloseCursor, Cursor: 6})}, " | ")
	}, "n=0 cursor=6 eos=false schema=(K INTEGER) | error: ErrOverloaded{queue-full backoff=3ms queue=0} | n=0 cursor=0 eos=false"},
	{"ErrShutdown", func(e *confEnv) string {
		e.srv.StartDrain()
		defer e.srv.EndDrain()
		return e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K FROM T"})
	}, "error: ErrShutdown"},
	{"ErrStaleMetadata", func(e *confEnv) string {
		// Epoch 1 is the empty catalog's; the script's DDL has moved on.
		raw := e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K FROM T", Epoch: 1})
		_, err := e.c.QueryAt("SELECT K FROM T", 1)
		return fmt.Sprintf("%s | %s | cursors=%d", raw, renderReply(wire.Reply{}, err), e.srv.OpenCursors())
	}, "error: ErrStaleMetadata | error: ErrStaleMetadata | cursors=0"},

	{"temp ledger: create two by exec, drop one by exec", func(e *confEnv) string {
		for _, name := range []string{"orphan", "dropped"} {
			e.ask(wire.Request{Op: wire.MsgExec, Name: "CREATE TABLE IF NOT EXISTS " + server.TempPrefix + name + " (K INTEGER)"})
		}
		return e.ask(wire.Request{Op: wire.MsgExec, Name: "DROP TABLE IF EXISTS " + server.TempPrefix + "dropped"})
	}, "n=0 cursor=0 eos=false"},
	{"close session collects the orphan, the open cursor and nothing else", func(e *confEnv) string {
		left := e.ask(wire.Request{Op: wire.MsgQuery, Name: "SELECT K FROM T"})
		n, err := e.c.be.Close()
		temps := e.srv.TempTables()
		return fmt.Sprintf("%s | collected=%d err=%v temps=%v cursors=%d", left, n, err, temps, e.srv.OpenCursors())
	}, "n=0 cursor=7 eos=false schema=(K INTEGER) | collected=1 err=<nil> temps=[] cursors=0"},
}

// TestTransportConformance runs the script over both transports.
func TestTransportConformance(t *testing.T) {
	transports := []struct {
		name string
		dial func(t *testing.T, srv *server.Server) (c *Conn, stop func())
	}{
		{"loopback", func(_ *testing.T, srv *server.Server) (*Conn, func()) { return Connect(srv), func() {} }},
		{"tcp", func(t *testing.T, srv *server.Server) (*Conn, func()) {
			ts, err := server.ListenAndServe(srv, "127.0.0.1:0", server.TCPConfig{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(ts.Addr())
			if err != nil {
				t.Fatal(err)
			}
			return c, func() { _ = ts.Close() }
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			defer itertest.Goroutines(t)()
			srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
			c, stop := tr.dial(t, srv)
			defer stop()
			e := &confEnv{t: t, srv: srv, c: c}
			for _, step := range conformance {
				if got := step.run(e); got != step.want {
					t.Errorf("%s:\n got  %s\n want %s", step.name, got, step.want)
				}
			}
			waitFor(t, "session collected", func() bool { return srv.LiveSessions() == 0 })
		})
	}
}
