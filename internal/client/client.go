// Package client is the middleware's connection to the DBMS server —
// the JDBC analogue. Query results arrive as serialized batches and
// are exposed through the shared iterator interface; per-query
// feedback (rows, bytes, wall time) feeds the middleware's adaptive
// cost calibration.
//
// The connection is also the resilience boundary (see retry.go): with
// a RetryPolicy configured, idempotent operations — cursor OPEN,
// sequence-numbered FETCH, deduplicated bulk LOAD, a temp table's
// CREATE IF NOT EXISTS and DROP IF EXISTS, and catalog reads — survive
// transient wire faults via capped, jittered exponential backoff under
// per-call deadlines and context cancellation.
package client

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/wire"
)

// Conn is a middleware-side connection.
type Conn struct {
	// be is the session transport every operation goes through: the
	// in-process loopback (Connect) or a TCP transport session (Dial).
	be Backend
	// Prefetch is the rows-per-fetch setting (the paper's Oracle
	// row-prefetch). 0 lets the server size fetches by bytes: 256 rows
	// first, growing toward 64 KiB a fetch; > 0 pins every fetch to
	// exactly that many rows.
	Prefetch int
	// Metrics, when set, receives wire-level series: serialized bytes
	// by direction (tango_wire_bytes_total{dir="in"|"out"}), row
	// counts, statement counters, per-transfer timing histograms, and
	// the resilience counters (retries, op timeouts, give-ups).
	Metrics *telemetry.Registry
	// Retry configures the resilience layer; the zero value disables
	// retries and deadlines entirely.
	Retry RetryPolicy
	// Ctx, when set, bounds every operation on this connection;
	// cancellation aborts in-flight retry loops. nil means Background.
	Ctx context.Context

	jitter  *jitterSrc
	sessLbl string

	// trace is the active trace parent: wire ops create their attempt
	// spans under it and carry its trace ID across the wire. Swapped
	// by PushTrace around each query execution.
	trace atomic.Pointer[telemetry.Span]

	// meta caches schemas and statistics under the DBMS's metadata
	// epoch (metacache.go).
	meta metaCache

	// temps numbers the connection's transfer temp tables (TempName).
	temps atomic.Int64
}

// record feeds one completed transfer into the wire metrics. dir is
// "in" (DBMS → middleware) or "out" (middleware → DBMS).
func (c *Conn) record(dir, kind string, fb Feedback) {
	reg := c.Metrics
	if reg == nil {
		return
	}
	l := telemetry.Labels{"dir": dir}
	reg.Counter("tango_wire_bytes_total", l).Add(fb.Bytes)
	reg.Counter("tango_wire_rows_total", l).Add(fb.Rows)
	kl := telemetry.Labels{"kind": kind}
	reg.Counter("tango_client_statements_total", kl).Inc()
	reg.Histogram("tango_transfer_seconds", kl, telemetry.DurationBuckets).Observe(fb.Elapsed.Seconds())
	// Per-session attribution, keyed by the server session ID.
	sl := telemetry.Labels{"session": c.sessLbl, "dir": dir}
	reg.Counter("tango_session_rows_total", sl).Add(fb.Rows)
	reg.Counter("tango_session_bytes_total", sl).Add(fb.Bytes)
	reg.Counter("tango_session_batches_total", sl).Add(fb.Batches)
	reg.Counter("tango_session_statements_total", telemetry.Labels{"session": c.sessLbl, "kind": kind}).Inc()
}

// AddSessionStat accumulates one per-session resource counter
// (tango_session_<stat>_total{session}): buffer-pool hits, WAL bytes,
// spill bytes — whatever the executor attributes to the query it just
// ran on this session.
func (c *Conn) AddSessionStat(stat string, n int64) {
	if c.Metrics == nil || n == 0 {
		return
	}
	c.Metrics.Counter("tango_session_"+stat+"_total", telemetry.Labels{"session": c.sessLbl}).Add(n)
}

// SessionID returns the server-side session identifier.
func (c *Conn) SessionID() int64 { return c.be.SessionID() }

// PushTrace installs sp as the connection's active trace parent and
// returns a func restoring the previous one; callers defer it around a
// query execution. A nil sp disables tracing for the window.
func (c *Conn) PushTrace(sp *telemetry.Span) func() {
	prev := c.trace.Swap(sp)
	return func() { c.trace.Store(prev) }
}

// TraceSpan returns the active trace parent (nil when tracing is off).
func (c *Conn) TraceSpan() *telemetry.Span { return c.trace.Load() }

// TakeRemoteSpans drains the server-collected spans of one trace so
// the caller can stitch them into its span tree.
func (c *Conn) TakeRemoteSpans(traceID uint64) []*telemetry.Span {
	return c.be.TakeRemoteSpans(traceID)
}

// traceHeader encodes a span's context as a wire trace header (nil
// when tracing is off, which the server treats as "no trace").
func traceHeader(sp *telemetry.Span) []byte {
	if sp == nil {
		return nil
	}
	return wire.AppendHeader(nil, wire.Header{TraceID: sp.TraceID(), SpanID: sp.SpanID()})
}

// observeOp records one wire attempt's latency into the per-op
// log-scale histogram.
func (c *Conn) observeOp(op string, d time.Duration) {
	if c.Metrics != nil {
		c.Metrics.Histogram("tango_wire_op_seconds", telemetry.Labels{"op": op}, telemetry.LatencyBuckets).Observe(d.Seconds())
	}
}

// Connect opens an in-process connection to a server.
func Connect(srv *server.Server) *Conn {
	return newConn(&loopback{srv: srv, se: srv.NewSession()})
}

// newConn wraps an already-open backend session in a connection.
func newConn(be Backend) *Conn {
	return &Conn{
		be:      be,
		sessLbl: fmt.Sprintf("%d", be.SessionID()),
		jitter:  newJitterSrc(time.Now().UnixNano()),
	}
}

// call performs one exchange with the session and notes the metadata
// epoch the reply carried; every operation goes through it.
func (c *Conn) call(ctx context.Context, req wire.Request) (wire.Reply, error) {
	rep, err := c.be.call(ctx, req)
	if err == nil {
		c.meta.observe(rep.Epoch)
	}
	return rep, err
}

// Close ends the connection's server session; any temp tables the
// session left behind (a query killed mid-transfer) are
// garbage-collected server-side.
func (c *Conn) Close() error {
	_, err := c.be.Close()
	return err
}

// resilient reports whether any resilience machinery is active.
func (c *Conn) resilient() bool {
	return c.Retry.MaxAttempts > 1 || c.Retry.OpTimeout > 0 || c.Ctx != nil
}

// Feedback summarizes one completed transfer for the adaptive cost
// model.
type Feedback struct {
	SQL     string
	Rows    int64
	Bytes   int64
	Batches int64
	Elapsed time.Duration
}

// once performs a request that must never be retried, as a single
// attempt that still gets a trace span and a latency observation.
func (c *Conn) once(op string, req wire.Request) (wire.Reply, error) {
	sp := c.TraceSpan().Child(op)
	start := time.Now()
	req.TraceHdr = traceHeader(sp)
	rep, err := c.call(c.baseCtx(), req)
	c.observeOp(op, time.Since(start))
	if err != nil {
		sp.Set("error_class", errClass(err))
	}
	sp.Finish()
	return rep, err
}

// retried performs an idempotent request through the resilience layer,
// each attempt carrying its own span's trace header.
func (c *Conn) retried(op string, req wire.Request, discard func(wire.Reply)) (wire.Reply, error) {
	return doVal(c, op, func(sp *telemetry.Span) (wire.Reply, error) {
		attempt := req // attempts can overlap (one abandoned, one retrying)
		attempt.TraceHdr = traceHeader(sp)
		return c.call(c.baseCtx(), attempt)
	}, discard)
}

// Exec runs a non-SELECT statement on the DBMS. Arbitrary statements
// are not known to be idempotent, so Exec never retries; the
// idempotent wrappers (CreateTable, DropTable) do.
func (c *Conn) Exec(sql string) (int64, error) {
	rep, err := c.once("exec", wire.Request{Op: wire.MsgExec, Name: sql})
	if err == nil {
		c.AddSessionStat("commits", 1)
	}
	return rep.N, err
}

// Query opens a SELECT on the DBMS and returns an iterator over the
// deserialized rows, which it fetches one batch ahead of the consumer.
// OPEN is idempotent (a lost request opens nothing server-side), so it
// retries; a cursor opened by an attempt abandoned at its deadline is
// closed by the reaper. The cursor's fetch attempts are traced under
// the trace parent active now, whatever the connection's is when they
// run.
func (c *Conn) Query(sql string) (*Rows, error) { return c.QueryAt(sql, 0) }

// QueryAt is Query for a statement generated from metadata read under
// epoch (0: unchecked). The server refuses it with
// server.ErrStaleMetadata once the epoch has moved on, and the refusal
// empties the metadata cache, so the caller's next plan reads the
// catalog afresh.
func (c *Conn) QueryAt(sql string, epoch uint64) (*Rows, error) {
	start := time.Now()
	rep, err := c.retried("query", wire.Request{Op: wire.MsgQuery, Name: sql, N: int64(c.Prefetch), Epoch: epoch},
		func(abandoned wire.Reply) { _ = c.closeCursor(abandoned.Cursor) })
	if err != nil {
		if errors.Is(err, server.ErrStaleMetadata) {
			c.meta.reset()
		}
		return nil, err
	}
	// Each open cursor pins one MVCC snapshot server-side; attribute it
	// to the session so the harness leak checks can diff open vs closed.
	c.AddSessionStat("snapshots", 1)
	return &Rows{conn: c, cur: rep.Cursor, schema: rep.Schema.Unqualified(), start: start, sql: sql, trace: c.TraceSpan()}, nil
}

// closeCursor releases a server cursor. The server treats an unknown
// cursor as closed, so a repeated close is harmless.
func (c *Conn) closeCursor(id uint64) error {
	_, err := c.call(c.baseCtx(), wire.Request{Op: wire.MsgCloseCursor, Cursor: id})
	return err
}

// readAheadDepth is how many fetched batches a cursor's fetch loop may
// hold ready beyond the one the consumer is reading: a synchronous
// cursor with row prefetch, as over JDBC, with one fetch on the wire
// at a time.
const readAheadDepth = 1

// Rows iterates a query result fetched in batches over the wire. One
// goroutine per cursor, started by the first NextBatch, fetches the
// batches in order and reads one batch ahead of the consumer. Each
// fetch is decoded into a slab that goes back to the pool once the
// consumer has asked for the batch after it.
type Rows struct {
	conn   *Conn
	cur    uint64 // server cursor id
	schema types.Schema
	sql    string
	trace  *telemetry.Span // the parent of the fetch attempts' spans

	batch rel.Cursor // the current fetch's rows
	mem   *slab      // their memory
	// keep has every fetch decoded into fresh memory and its rows
	// gathered in kept (QueryAll).
	keep   bool
	kept   [][]types.Tuple
	done   bool
	err    error // the failure that ended the stream; sticky
	closed bool

	// ahead carries the fetch loop's batches in order; nil until the
	// first NextBatch, so keep is set before the loop reads it. stop
	// cancels the loop's context.
	ahead chan fetched
	stop  context.CancelFunc

	start time.Time
	fb    Feedback
}

// fetched is one decoded fetch reply (or the failure that ended the
// stream). rows == nil with a nil err is end of stream.
type fetched struct {
	rows  []types.Tuple
	mem   *slab // what rows are decoded into
	bytes int
	err   error
}

// slab is the memory one fetch is decoded into: its row headers and
// the arena of their values and strings. Slabs are pooled across every
// result set, and a released slab frees its arena's chunks for any
// arena, so a steady stream of fetches decodes without allocating.
type slab struct {
	rows []types.Tuple
	mem  types.Arena
}

var slabs = sync.Pool{New: func() any { return new(slab) }}

// put frees the slab's rows and returns it to the pool; a nil slab
// (a kept fetch, or none) is a no-op.
func (s *slab) put() {
	if s == nil {
		return
	}
	s.mem.Free()
	slabs.Put(s)
}

// fetchLoop is the cursor's one fetch path: it fetches batches 1, 2, …
// in order into ahead, up to and including the one that ends the stream
// (end of stream or a failure), and then closes ahead. It never drops a
// batch: the consumer takes each one, or Close, which cancels ctx so
// the fetches fail fast, drains ahead to the end.
func (r *Rows) fetchLoop(ctx context.Context, ahead chan<- fetched) {
	defer close(ahead)
	for seq := int64(1); ; seq++ {
		b := r.fetchBatch(ctx, seq)
		ahead <- b
		if b.rows == nil {
			return
		}
	}
}

// fetchBatch is the one fetch round trip: it asks the cursor for batch
// seq (retrying under the resilience policy, every attempt replaying
// the same sequence number) and decodes the reply straight from the
// bytes the transport returned. Each attempt owns its scratch buffer
// and its slab, so an attempt abandoned at its deadline can never race
// a retry or the consumer.
func (r *Rows) fetchBatch(ctx context.Context, seq int64) fetched {
	out, err := doValCtx(r.conn, ctx, r.trace, "fetch", func(sp *telemetry.Span) (fetched, error) {
		buf := wire.GetBuf()
		rep, err := r.conn.call(ctx, wire.Request{
			Op: wire.MsgFetch, TraceHdr: traceHeader(sp), Cursor: r.cur, Seq: seq, Buf: buf,
		})
		if rep.Body != nil {
			buf = rep.Body // a reply that outgrew the scratch holds a larger one
		}
		defer wire.PutBuf(buf)
		if err != nil || rep.EOS {
			return fetched{}, err
		}
		if r.keep {
			rows, derr := wire.DecodeBatch(rep.Body)
			if derr != nil {
				return fetched{}, &corruptReply{err: derr}
			}
			return fetched{rows: rows, bytes: len(rep.Body)}, nil
		}
		s := slabs.Get().(*slab)
		rows, derr := wire.DecodeBatchArena(s.rows[:0], &s.mem, rep.Body)
		if derr != nil {
			s.put()
			// Truncated reply: retry replays the same sequence number.
			return fetched{}, &corruptReply{err: derr}
		}
		s.rows = rows
		return fetched{rows: rows, mem: s, bytes: len(rep.Body)}, nil
	}, nil)
	out.err = err
	return out
}

// Schema returns the result schema (unqualified column names, as a
// JDBC ResultSetMetaData would present them).
func (r *Rows) Schema() types.Schema { return r.schema }

// Open is a no-op; the cursor is opened by Query.
func (r *Rows) Open() error { return nil }

// fetch installs the next batch from the fetch loop, starting the loop
// on the first call, and sets done at end of stream.
func (r *Rows) fetch() error {
	if r.ahead == nil {
		// The loop's context is canceled by Close, which abandons
		// in-flight retries instead of waiting out their budget.
		ctx, stop := context.WithCancel(r.conn.baseCtx())
		r.ahead, r.stop = make(chan fetched, readAheadDepth), stop
		go r.fetchLoop(ctx, r.ahead)
	}
	b := <-r.ahead
	if b.err != nil {
		return b.err
	}
	if b.rows == nil {
		r.done = true
		r.finish()
		return nil
	}
	r.fb.Bytes += int64(b.bytes)
	r.fb.Batches++
	r.batch.Reset(b.rows)
	r.mem.put()
	r.mem = b.mem
	if r.keep {
		r.kept = append(r.kept, b.rows)
	}
	return nil
}

// NextBatch hands over (up to) one decoded wire fetch at a time,
// fetching the next when the current one is spent. A failed fetch ends
// the stream: every later call returns its error.
func (r *Rows) NextBatch(dst []types.Tuple) (int, error) {
	for {
		if n := r.batch.Read(dst); n > 0 {
			r.fb.Rows += int64(n)
			return n, nil
		}
		if r.done || r.err != nil {
			return 0, r.err
		}
		r.err = r.fetch()
	}
}

// Close stops the fetch loop and joins it by draining ahead to the end —
// so the serial cursor is quiescent and every batch the loop fetched
// goes back to the pool — and releases the server cursor. Idempotent.
func (r *Rows) Close() error {
	if r.ahead != nil {
		r.stop()
		for b := range r.ahead {
			b.mem.put()
		}
		r.ahead = nil
	}
	if !r.done {
		r.done = true
		r.finish()
	}
	r.batch.Reset(nil)
	r.mem.put()
	r.mem = nil
	if r.closed {
		return nil
	}
	r.closed = true
	return r.conn.closeCursor(r.cur)
}

func (r *Rows) finish() {
	r.fb.Elapsed = time.Since(r.start)
	r.fb.SQL = r.sql
	if r.conn != nil {
		r.conn.record("in", "query", r.fb)
	}
}

// Feedback returns transfer statistics; valid after the rows are
// drained or closed.
func (r *Rows) Feedback() Feedback { return r.fb }

// QueryAll runs a query and materializes the result, returning the
// transfer feedback. It keeps every row, so rather than copy them out
// of reused slabs, as rel.Drain would, it has each fetch decoded into
// fresh memory that the relation keeps.
func (c *Conn) QueryAll(sql string) (*rel.Relation, Feedback, error) {
	rows, err := c.Query(sql)
	if err != nil {
		return nil, Feedback{}, err
	}
	rows.keep = true
	// Each closes rows on every path; the fetches pile up in rows.kept.
	if err := rel.Each(rows, func(types.Tuple) error { return nil }); err != nil {
		return nil, Feedback{}, err
	}
	return &rel.Relation{Schema: rows.Schema(), Tuples: slices.Concat(rows.kept...)}, rows.Feedback(), nil
}

// CreateTable issues a CREATE TABLE for the given schema. Qualified
// column names are mangled ("A.PosID" → "A$PosID") so self-join
// outputs stay unambiguous; SQL generation uses the same mangling.
//
// A transfer temp table is created by CREATE TABLE IF NOT EXISTS,
// which retries: its name is the session's own (TempName), so an
// attempt that lands after another already created the table leaves
// it, and whatever was loaded into it, as it is. The session enters
// the table in its ledger for server-side GC.
func (c *Conn) CreateTable(name string, schema types.Schema) error {
	cols := make([]string, schema.Len())
	for i, col := range schema.Cols {
		cols[i] = Mangle(col.Name) + " " + col.Kind.String()
	}
	def := name + " (" + strings.Join(cols, ", ") + ")"
	if !strings.HasPrefix(name, server.TempPrefix) {
		_, err := c.Exec("CREATE TABLE " + def)
		return err
	}
	_, err := c.retried("create", wire.Request{Op: wire.MsgExec, Name: "CREATE TABLE IF NOT EXISTS " + def}, nil)
	return err
}

// Mangle converts a (possibly qualified) algebra column name into a
// valid SQL identifier.
func Mangle(name string) string {
	return strings.ReplaceAll(name, ".", "$")
}

// loadCounter numbers bulk loads; each logical Load carries one
// sequence number across all its retry attempts so the server can
// deduplicate ambiguous deliveries.
var loadCounter atomic.Int64

// Load bulk-loads rows into an existing table via the direct-path
// loader, returning transfer feedback. The load carries a statement
// sequence number, so retries after a lost acknowledgment are
// answered from the server's load mark instead of double-appending.
func (c *Conn) Load(table string, rows []types.Tuple) (Feedback, error) {
	start := time.Now()
	var payload []byte
	pooled := !c.resilient()
	if pooled {
		payload = wire.EncodeBatch(wire.GetBuf(), rows)
		defer wire.PutBuf(payload)
	} else {
		// A deadline-abandoned attempt may still be reading the
		// payload after Load returns; keep it off the pool.
		payload = wire.EncodeBatch(nil, rows)
	}
	rep, err := c.retried("load", wire.Request{Op: wire.MsgLoad, Name: table, Seq: loadCounter.Add(1), Body: payload}, nil)
	if err != nil {
		return Feedback{}, err
	}
	fb := Feedback{
		SQL:     "LOAD " + table,
		Rows:    rep.N,
		Bytes:   int64(len(payload)),
		Batches: 1,
		Elapsed: time.Since(start),
	}
	c.AddSessionStat("commits", 1)
	c.record("out", "load", fb)
	return fb, nil
}

// DropTable drops a table, ignoring missing tables (used to clean up
// transfer temporaries). DROP IF EXISTS is idempotent, so it retries.
func (c *Conn) DropTable(name string) error {
	_, err := c.retried("drop", wire.Request{Op: wire.MsgExec, Name: "DROP TABLE IF EXISTS " + name}, nil)
	return err
}

// TempName generates a temporary table name unique on the server: the
// session ID, unique among the server's sessions, and the
// connection's own count. The caller must drop the table when the
// query completes (as §3.2 of the paper requires).
func (c *Conn) TempName() string {
	return fmt.Sprintf("%s%s_%d", server.TempPrefix, c.sessLbl, c.temps.Add(1))
}
