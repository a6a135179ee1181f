// Package server exposes the DBMS engine behind the wire boundary:
// every row leaving a query or entering the loader is serialized. The
// middleware only ever talks to this façade (the paper treats the DBMS
// as "a quite full featured file system").
//
// The façade is where the wire's unreliability is modeled: an attached
// wire.FaultInjector can drop, stall, or partially deliver any
// operation. To let the client retry through that, the server's
// effectful operations are idempotent: cursor fetches carry statement
// sequence numbers and the last batch is replayable, and bulk loads
// are deduplicated by a per-table load sequence, so a retry after an
// ambiguous failure (work done, reply lost) never double-applies.
package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tango/internal/engine"
	"tango/internal/meta"
	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/wire"
)

// Server is the DBMS endpoint. Every statement reaches it through
// (*Session).Handle (session.go).
type Server struct {
	db *engine.DB
	// lat models the link in front of the server. The server never
	// sleeps it: the client's loopback transport bills it per exchange,
	// and a real socket is its own delay.
	lat wire.Latency

	// faults, when non-nil, injects wire failures into every op.
	faults atomic.Pointer[wire.FaultInjector]

	// adm is the admission controller (disabled by default).
	adm admission

	// collector, when non-nil, receives finished server-side spans for
	// wire ops that arrive with a trace header (see trace.go).
	collector atomic.Pointer[telemetry.Collector]
	// badHeaders counts requests whose trace header failed to decode.
	badHeaders int64

	mu       sync.Mutex          //tango:lock-order server latch
	loadSeqs map[string]loadMark // per-table last applied load sequence
	sessions map[*Session]bool

	// local is the unregistered session behind Query, the in-process
	// convenience for callers that hold the Server itself.
	local *Session

	// counters for experiments
	queries int64
	rowsOut int64
	rowsIn  int64

	// openCursors tracks cursors opened but not yet closed (leak
	// detection for the chaos harness).
	openCursors int64

	// requests counts the requests Handle received, by message type.
	requests [32]atomic.Int64
}

// loadMark remembers one applied bulk load for duplicate suppression.
type loadMark struct {
	seq  int64
	rows int64
}

// New wraps a database in a server with the given latency model.
func New(db *engine.DB, lat wire.Latency) *Server {
	s := &Server{db: db, lat: lat}
	s.adm.drainCh = make(chan struct{})
	s.local = &Session{srv: s, cursors: map[uint64]*Cursor{}}
	return s
}

// DB exposes the engine for in-process test setup; production callers
// go through a session.
func (s *Server) DB() *engine.DB { return s.db }

// SetLatency replaces the latency model (used by experiments).
func (s *Server) SetLatency(lat wire.Latency) { s.lat = lat }

// Latency returns the latency model the loopback transport bills.
func (s *Server) Latency() wire.Latency { return s.lat }

// SetFaults attaches (or, with nil, detaches) a fault injector. Safe
// to swap between queries while other connections are idle.
func (s *Server) SetFaults(f *wire.FaultInjector) { s.faults.Store(f) }

// Faults returns the attached injector (nil when faults are off).
func (s *Server) Faults() *wire.FaultInjector { return s.faults.Load() }

// decide consults the injector for one op. The returned fault's Kind
// is KindNone on the clean path. KindStall is served here, bounded by
// ctx so a draining server or a caller that gave up cuts it short (the
// call proceeds after the stall); Drop and Partial are interpreted by
// Handle because they differ in whether the op's effect happens.
func (s *Server) decide(ctx context.Context, op wire.Op) wire.Fault {
	f := s.faults.Load()
	if f == nil {
		return wire.Fault{}
	}
	d := f.Decide(op)
	if d.Kind == wire.KindStall {
		wire.SleepCtx(ctx, d.Stall)
	}
	return d
}

// RegisterMetrics exports the server's traffic counters into the
// registry and turns on the engine's instrumentation (per-operator
// series under engine="dbms" plus the disk and buffer-pool gauges).
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("tango_server_queries", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.queries))
	})
	reg.GaugeFunc("tango_server_rows_out", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.rowsOut))
	})
	reg.GaugeFunc("tango_server_rows_in", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.rowsIn))
	})
	reg.GaugeFunc("tango_wire_bad_headers_total", nil, func() float64 {
		return float64(atomic.LoadInt64(&s.badHeaders))
	})
	// Transport and admission lifecycle counters (the TCP layer and the
	// admission controller feed these).
	reg.GaugeFunc("tango_server_connections_total", nil, func() float64 {
		return float64(s.adm.connections.Load())
	})
	reg.GaugeFunc("tango_server_accepted_total", nil, func() float64 {
		return float64(s.adm.accepted.Load())
	})
	reg.GaugeFunc("tango_server_admitted_total", nil, func() float64 {
		return float64(s.adm.admitted.Load())
	})
	reg.GaugeFunc("tango_server_queued_total", nil, func() float64 {
		return float64(s.adm.queued.Load())
	})
	reg.GaugeFunc("tango_server_shed_total", nil, func() float64 {
		return float64(s.adm.shed.Load())
	})
	reg.GaugeFunc("tango_server_drained_total", nil, func() float64 {
		return float64(s.adm.drained.Load())
	})
	reg.GaugeFunc("tango_admission_queue_depth", nil, func() float64 {
		return float64(s.QueueDepth())
	})
	s.db.SetMetrics(reg)
}

// dropTable is the one place a table leaves the server: the engine
// drop, and its load-dedup mark with it, so a later table reusing the
// name does not inherit the mark. Every DROP statement and a session's
// close go through it.
func (s *Server) dropTable(name string, ifExists bool) error {
	if err := s.db.DropTable(name, ifExists); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.loadSeqs, name)
	s.mu.Unlock()
	return nil
}

// Query opens a SELECT on the server's own session and returns its
// cursor: Handle, for a caller in the same process that wants the
// serialized batches without a client.
func (s *Server) Query(sql string, prefetch int) (*Cursor, error) {
	rep, err := s.local.Handle(context.Background(), wire.Request{Op: wire.MsgQuery, Name: sql, N: int64(prefetch)})
	if err != nil {
		return nil, err
	}
	return s.local.cursor(rep.Cursor), nil
}

// OpenCursors reports the number of cursors opened but not yet
// closed. The chaos harness asserts it returns to zero after every
// query, faults or not.
func (s *Server) OpenCursors() int64 {
	return atomic.LoadInt64(&s.openCursors)
}

// Cursor is the server side of an open query, an entry in its
// session's cursor table. Batch production is serial, but the cursor
// tolerates the concurrency that client-side deadlines create (an
// abandoned stalled call waking after its retry was served): fetches
// serialize on the cursor lock, and every produced batch carries a
// 1-based sequence number and stays replayable until the next one is
// produced, so the late call is answered with a replay or a typed
// out-of-sync error that nobody is waiting for.
type Cursor struct {
	se       *Session
	id       uint64
	it       rel.Iterator
	snap     *engine.Snapshot // pinned commit sequence; released on close
	prefetch int              // rows in the next batch
	grow     bool             // size batches by bytes (the client left the row count unset)
	release  func()           // admission unit held while the statement is open

	// The cursor lock is held across iterator pulls (engine I/O): an
	// ordered class, not a latch.
	mu     sync.Mutex //tango:lock-order cursor
	done   bool
	closed bool
	seq    int64         // sequence number of the batch held in rows
	rows   []types.Tuple // current batch (replayable), in batch
	batch  *batchMem     // pooled, reused
	mem    int64         // encoded size of that batch, billed to the session budget (guarded by se.mu)

	buf []byte // pooled encode scratch behind FetchBatch
}

// batchMem is the memory of a cursor's current batch: its rows, and
// the arena of the copies of those the iterator may overwrite before
// the batch is complete. It is pooled across cursors, and the arena's
// chunks are freed for any arena, so a steady stream of statements
// produces batches without allocating.
type batchMem struct {
	rows []types.Tuple
	kept types.Arena
}

var batchMems = sync.Pool{New: func() any { return new(batchMem) }}

// Schema returns the result schema.
func (c *Cursor) Schema() types.Schema { return c.it.Schema() }

// fetchBytes is the encoded size a cursor whose client left the row
// count unset grows its batches toward (see grown).
const fetchBytes = 64 << 10

// produce fills the next batch of prefetch rows from the result
// iterator — as many NextBatch calls as it takes, so a fetch is short
// only at end of stream — returning nil at end of stream. The rows of
// each call but the last are copied into the cursor's arena before the
// next call may overwrite them; the last call's stay valid, and the
// batch replayable, until the next produce. The row slice is allocated
// only when the batch size grows. Caller holds c.mu.
func (c *Cursor) produce() ([]types.Tuple, error) {
	if c.done {
		return nil, nil
	}
	if c.batch == nil {
		c.batch = batchMems.Get().(*batchMem)
	}
	b := c.batch
	if cap(b.rows) < c.prefetch {
		b.rows = make([]types.Tuple, 0, c.prefetch)
	}
	rows := b.rows[:c.prefetch]
	b.kept.Reset()
	n, kept := 0, 0
	for n < len(rows) {
		for ; kept < n; kept++ {
			rows[kept] = b.kept.Copy(rows[kept])
		}
		k, err := c.it.NextBatch(rows[n:])
		if err != nil {
			return nil, err
		}
		if k == 0 {
			c.done = true
			break
		}
		n += k
	}
	rows = rows[:n]
	c.rows = rows
	if len(rows) == 0 {
		return nil, nil
	}
	atomic.AddInt64(&c.se.srv.rowsOut, int64(len(rows)))
	return rows, nil
}

// grown returns the row count of the batch after a full one of n rows
// that encoded to size bytes: twice n, but no more rows than fit in
// limit bytes at this batch's bytes per row, nor than one block holds,
// and never fewer than n. Sizes follow only from the data, so fetches
// stay deterministic.
func grown(n, size, arity int, limit int64) int {
	perRow := int64(max(1, (size+n-1)/n))
	return max(n, min(2*n, int(limit/perRow), types.MaxBlockRows(arity)))
}

// fetch produces or replays the batch with the given 1-based sequence
// number, encoding it into dst. seq == 0 means "the next batch".
// Asking for the current sequence number replays the last batch (the
// idempotent retry after a lost or corrupted reply); asking for the
// next one produces it, and a batch sized by bytes then sets the size
// of the one after it, at most limit bytes. Caller holds c.mu.
func (c *Cursor) fetch(seq int64, dst []byte, limit int64) (wire.Reply, error) {
	if seq == 0 {
		seq = c.seq + 1
	}
	switch {
	case seq == c.seq+1:
		rows, err := c.produce()
		if err != nil {
			return wire.Reply{}, err
		}
		if rows == nil {
			// End of stream is idempotent: the sequence number does not
			// advance, and a lost EOS reply is re-answered with EOS.
			return wire.Reply{EOS: true}, nil
		}
		c.seq = seq
		body := wire.EncodeBatch(dst[:0], rows)
		if c.grow && len(rows) == c.prefetch {
			c.prefetch = grown(len(rows), len(body), len(rows[0]), limit)
		}
		return wire.Reply{Body: body}, nil
	case seq == c.seq && c.seq > 0:
		// Replay: the previous reply was lost or corrupted in flight.
		return wire.Reply{Body: wire.EncodeBatch(dst[:0], c.rows)}, nil
	default:
		return wire.Reply{}, fmt.Errorf("server: cursor out of sync: asked batch %d, at %d", seq, c.seq)
	}
}

// FetchBatch produces the next serialized batch. It returns nil when
// the result is exhausted. The returned slice is only valid until the
// next call.
func (c *Cursor) FetchBatch() ([]byte, error) {
	if c.buf == nil {
		c.buf = wire.GetBuf()
	}
	rep, err := c.se.Handle(context.Background(), wire.Request{Op: wire.MsgFetch, Cursor: c.id, Buf: c.buf})
	if rep.Body != nil {
		c.buf = rep.Body
	}
	return rep.Body, err
}

// Close releases the cursor. The payload returned by the last
// FetchBatch must not be used after Close. Close is idempotent.
func (c *Cursor) Close() error {
	_, err := c.se.Handle(context.Background(), wire.Request{Op: wire.MsgCloseCursor, Cursor: c.id})
	return err
}

// close releases the iterator, the snapshot pin and the admission
// unit, once; the session has already dropped the cursor from its
// table.
func (c *Cursor) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed, c.done = true, true
	wire.PutBuf(c.buf)
	if b := c.batch; b != nil {
		// Rows the iterator made must not outlive it in the pool.
		clear(b.rows[:cap(b.rows)])
		b.kept.Free()
		batchMems.Put(b)
	}
	c.buf, c.rows, c.batch = nil, nil, nil
	atomic.AddInt64(&c.se.srv.openCursors, -1)
	c.release()
	err := c.it.Close()
	c.snap.Release()
	return err
}

// load is the direct-path bulk loader (the paper's SQL*Loader): the
// payload is a serialized batch ("data file") appended to an existing
// table with pages filled to capacity. If the table's last applied
// load carried the same nonzero seq, the load is a duplicate delivery
// (the previous reply was lost) and is answered from the mark without
// re-applying; seq 0 is never deduplicated.
func (s *Server) load(table string, payload []byte, seq int64) (int64, error) {
	if seq != 0 {
		s.mu.Lock()
		mark, ok := s.loadSeqs[table]
		s.mu.Unlock()
		if ok && mark.seq == seq {
			return mark.rows, nil
		}
	}
	rows, err := wire.DecodeBatch(payload)
	if err != nil {
		return 0, err
	}
	if err := s.db.BulkLoad(table, rows); err != nil {
		return 0, err
	}
	atomic.AddInt64(&s.rowsIn, int64(len(rows)))
	if seq != 0 {
		s.mu.Lock()
		if s.loadSeqs == nil {
			s.loadSeqs = map[string]loadMark{}
		}
		s.loadSeqs[table] = loadMark{seq: seq, rows: int64(len(rows))}
		s.mu.Unlock()
	}
	return int64(len(rows)), nil
}

// stats returns catalog statistics, computing them (ANALYZE) if
// absent, and the metadata epoch of the lookup: read before any
// ANALYZE this call runs, it labels no payload newer than it is.
// histogramBuckets applies only when statistics are computed.
func (s *Server) stats(table string, histogramBuckets int) (*meta.TableStats, uint64, error) {
	t, epoch, err := s.db.TableEpoch(table)
	if err != nil {
		return nil, 0, err
	}
	if t.Stats != nil {
		return t.Stats, epoch, nil
	}
	st, err := s.db.Analyze(table, histogramBuckets)
	return st, epoch, err
}

// Counters reports cumulative traffic for experiments.
func (s *Server) Counters() (queries, rowsOut, rowsIn int64) {
	return atomic.LoadInt64(&s.queries), atomic.LoadInt64(&s.rowsOut), atomic.LoadInt64(&s.rowsIn)
}

// Requests reports how many requests of one message type
// (wire.MsgCloseSession … wire.MsgSchema) the server's sessions have
// received, on either transport.
func (s *Server) Requests(msg byte) int64 {
	if int(msg) >= len(s.requests) {
		return 0
	}
	return s.requests[msg].Load()
}

// String describes the server.
func (s *Server) String() string {
	return fmt.Sprintf("Server{tables: %v}", s.db.TableNames())
}
