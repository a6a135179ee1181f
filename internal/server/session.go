// The session is the server's one request path. Everything a client —
// in process or across a socket — asks of the DBMS is a wire.Request
// handed to (*Session).Handle, which is the only place admission, the
// per-session byte budget, the fault decision, the remote trace span,
// fetch replay / load dedup and the session's cursor table live.
//
// The session also keeps the temp-table ledger: TRANSFER^D
// materializes middleware islands into uniquely named temp tables that
// §3.2 requires dropped at query end. Under wire faults the client-side
// cleanup can fail (or the client can die mid-query), so the server
// keeps its own ledger per session, from the CREATE and DROP
// statements the session executes, and garbage-collects whatever is
// left when the session ends.
package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"tango/internal/engine"
	"tango/internal/fault"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/wire"
)

// TempPrefix is the naming prefix of transfer temp tables; the
// client's TempName generator, the session ledger, the server's leak
// count and the engine (epoch, unlogged files) agree on it.
const TempPrefix = engine.TempPrefix

// ErrStaleMetadata is the typed refusal of a query whose plan was
// built under a metadata epoch the DBMS has since left: the client
// drops what it cached and plans again. Not retryable as it stands.
var ErrStaleMetadata = errors.New("server: plan built on stale metadata")

// Session is the server-side state of one client connection: its open
// cursors and the temp tables it created and has not yet dropped.
type Session struct {
	srv *Server
	id  int64

	mu         sync.Mutex //tango:lock-order session latch
	cursors    map[uint64]*Cursor
	nextCursor uint64
	temps      []string // the ledger
	closed     bool
}

// sessionCounter numbers sessions process-wide; the ID keys the
// per-session accounting series (tango_session_*{session="N"}).
var sessionCounter atomic.Int64

// NewSession registers a new client session.
func (s *Server) NewSession() *Session {
	se := &Session{srv: s, id: sessionCounter.Add(1), cursors: map[uint64]*Cursor{}}
	s.mu.Lock()
	if s.sessions == nil {
		s.sessions = map[*Session]bool{}
	}
	s.sessions[se] = true
	s.mu.Unlock()
	return se
}

// ID returns the session's process-unique identifier.
func (se *Session) ID() int64 { return se.id }

// Handle executes one request. For the six statement ops (exec, query,
// fetch, load, insert, stats) it runs, in this order: the dbms.<op>
// span parented under the caller's trace header; the session byte
// budget; admission (a fetch instead runs on the unit its query took,
// which the cursor holds until it closes); the fault decision; the
// effect. An injected stall delays the call before its effect, bounded
// by ctx. A drop fails it before the effect. A partial delivery loses
// the reply after the effect for the ops whose retry the server can
// absorb — exec (the client only retries idempotent statements), load
// (the retry hits the load mark) and fetch (the batch arrives
// truncated and the retry replays its sequence number) — and acts as a
// drop for query, insert and stats, which then have no effect at all.
// The remaining ops are session bookkeeping and are never gated,
// faulted or traced.
//
// Every reply carries the metadata epoch: a schema or statistics read
// the one its payload was read under, a query the one of its snapshot,
// and every other op the one after its effect, so a session's own DDL
// reaches its client's metadata cache at once.
func (se *Session) Handle(ctx context.Context, req wire.Request) (rep wire.Reply, err error) {
	s := se.srv
	if int(req.Op) < len(s.requests) {
		s.requests[req.Op].Add(1)
	}
	op, statement := wire.MsgOp(req.Op)
	if !statement {
		return se.control(req)
	}
	if sp := s.beginOp(op.String(), req.TraceHdr); sp != nil {
		defer func() {
			if op == fault.OpFetch {
				sp.SetInt("seq", req.Seq)
			}
			sp.SetInt("bytes", int64(len(req.Body)+len(rep.Body)))
			sp.SetInt("rows", rep.N)
			s.endOp(sp, err)
		}()
	}
	if se.overBudget(int64(len(req.Name) + len(req.Body))) {
		return wire.Reply{}, s.shedBudget(s.QueueDepth())
	}
	release := func() {}
	if op != fault.OpFetch {
		if release, err = s.admit(ctx); err != nil {
			return wire.Reply{}, err
		}
	}
	d := s.decide(ctx, op)
	replyLost := d.Kind == fault.KindPartial && (op == fault.OpExec || op == fault.OpLoad || op == fault.OpFetch)
	if d.Kind == fault.KindDrop || d.Kind == fault.KindPartial && !replyLost {
		release()
		return wire.Reply{}, &wire.FaultError{Op: op, Kind: d.Kind, Index: d.Index}
	}
	switch op {
	case fault.OpQuery:
		// An open statement is live work (its snapshot, its replayable
		// batch): the admission unit passes to the cursor.
		return se.open(req.Name, int(req.N), req.Epoch, release)
	case fault.OpExec:
		rep.N, err = se.exec(req.Name)
	case fault.OpFetch:
		rep, err = se.fetch(req)
	case fault.OpLoad:
		rep.N, err = s.load(req.Name, req.Body, req.Seq)
	case fault.OpStats:
		rep.Stats, rep.Epoch, err = s.stats(req.Name, int(req.N))
	}
	if op != fault.OpStats {
		rep.Epoch = s.db.MetaEpoch()
	}
	release()
	if err == nil && replyLost {
		if op != fault.OpFetch {
			return wire.Reply{}, &wire.FaultError{Op: op, Kind: d.Kind, Index: d.Index}
		}
		rep.Body = wire.Corrupt(rep.Body)
	}
	return rep, err
}

// control handles the ungated bookkeeping ops.
func (se *Session) control(req wire.Request) (wire.Reply, error) {
	switch req.Op {
	case wire.MsgSchema:
		t, epoch, err := se.srv.db.TableEpoch(req.Name)
		if err != nil {
			return wire.Reply{}, err
		}
		return wire.Reply{Schema: t.Schema, Epoch: epoch}, nil
	case wire.MsgCloseCursor:
		se.mu.Lock()
		cur := se.cursors[req.Cursor]
		delete(se.cursors, req.Cursor)
		se.mu.Unlock()
		// Closing an unknown cursor succeeds: a close retried after a
		// lost acknowledgment must.
		if cur != nil {
			return wire.Reply{}, cur.close()
		}
	case wire.MsgCloseSession:
		n, err := se.Close()
		return wire.Reply{N: int64(n), Epoch: se.srv.db.MetaEpoch()}, err
	default:
		return wire.Reply{}, fmt.Errorf("server: unexpected message %s", wire.MsgName(req.Op))
	}
	return wire.Reply{Epoch: se.srv.db.MetaEpoch()}, nil
}

// exec runs a non-SELECT statement, parsed once here so the session
// keeps its temp-table ledger from what ran: a created TempPrefix table
// enters it, a dropped one (every DROP goes through Server.dropTable)
// leaves it. A create landing on a closed session — an attempt
// abandoned at its deadline, waking late — is dropped at once.
func (se *Session) exec(sql string) (int64, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return 0, err
	}
	switch st := stmt.(type) {
	case *sqlast.DropTable:
		if err := se.srv.dropTable(st.Name, st.IfExists); err != nil {
			return 0, err
		}
		se.mu.Lock()
		se.temps = slices.DeleteFunc(se.temps, func(name string) bool { return name == st.Name })
		se.mu.Unlock()
		return 0, nil
	case *sqlast.CreateTable:
		if _, err := se.srv.db.ExecStmt(st); err != nil || !strings.HasPrefix(st.Name, TempPrefix) {
			return 0, err
		}
		se.mu.Lock()
		closed := se.closed
		if !closed && !slices.Contains(se.temps, st.Name) {
			se.temps = append(se.temps, st.Name)
		}
		se.mu.Unlock()
		if closed {
			return 0, cmp.Or(se.srv.dropTable(st.Name, true), ErrShutdown)
		}
		return 0, nil
	}
	return se.srv.db.ExecStmt(stmt)
}

// open plans and opens a SELECT and enters its cursor in the session's
// table. The cursor pins the commit sequence current at open, so its
// batches stream one consistent state no matter what other sessions
// commit or load meanwhile, and takes over the admission unit; both
// are released when it closes (or here, on failure). A nonzero epoch
// is the metadata epoch the query's plan was built under: a snapshot
// at another one refuses the query with ErrStaleMetadata.
func (se *Session) open(sql string, prefetch int, epoch uint64, release func()) (wire.Reply, error) {
	s := se.srv
	grow := prefetch <= 0
	if grow {
		prefetch = wire.DefaultPrefetch
	}
	snap := s.db.Snapshot()
	if epoch != 0 && epoch != snap.MetaEpoch() {
		at := snap.MetaEpoch()
		snap.Release()
		release()
		return wire.Reply{}, fmt.Errorf("%w: plan read under metadata epoch %d, catalog at %d", ErrStaleMetadata, epoch, at)
	}
	it, err := snap.Query(sql)
	if err == nil {
		if err = it.Open(); err != nil {
			_ = it.Close()
		}
	}
	if err != nil {
		snap.Release()
		release()
		return wire.Reply{}, err
	}
	atomic.AddInt64(&s.queries, 1)
	atomic.AddInt64(&s.openCursors, 1)
	cur := &Cursor{se: se, it: it, snap: snap, prefetch: prefetch, grow: grow, release: release}
	se.mu.Lock()
	if se.closed {
		// The session was collected (reaper, drain) under this request.
		se.mu.Unlock()
		_ = cur.close()
		return wire.Reply{}, ErrShutdown
	}
	se.nextCursor++
	cur.id = se.nextCursor
	se.cursors[cur.id] = cur
	se.mu.Unlock()
	return wire.Reply{Cursor: cur.id, Schema: it.Schema(), Epoch: snap.MetaEpoch()}, nil
}

// fetch serves one FETCH from the session's cursor table and records
// the size of the batch the cursor now keeps replayable. Under a
// session budget a batch sized by bytes grows to at most half of what
// the budget has left beside the session's other cursors, so the
// session's resident batches stay within the budget together.
func (se *Session) fetch(req wire.Request) (wire.Reply, error) {
	cur := se.cursor(req.Cursor)
	if cur == nil {
		return wire.Reply{}, fmt.Errorf("server: unknown cursor %d", req.Cursor)
	}
	limit := int64(fetchBytes)
	if budget := se.srv.Admission().SessionBudget; budget > 0 {
		limit = min(limit, (budget-se.resident(cur))/2)
	}
	cur.mu.Lock()
	rep, err := cur.fetch(req.Seq, req.Buf, limit)
	cur.mu.Unlock()
	if err == nil && !rep.EOS {
		se.mu.Lock()
		cur.mem = int64(len(rep.Body))
		se.mu.Unlock()
	}
	return rep, err
}

// cursor looks up an open cursor (nil when unknown).
func (se *Session) cursor(id uint64) *Cursor {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.cursors[id]
}

// resident sums the replayable batches of the session's cursors other
// than skip: the bytes its budget already bills.
func (se *Session) resident(skip *Cursor) int64 {
	se.mu.Lock()
	defer se.mu.Unlock()
	var n int64
	for _, cur := range se.cursors {
		if cur != skip {
			n += cur.mem
		}
	}
	return n
}

// overBudget enforces the per-session memory budget: the request's
// payload plus the session's resident cursor batches must fit.
func (se *Session) overBudget(extra int64) bool {
	budget := se.srv.Admission().SessionBudget
	return budget > 0 && extra+se.resident(nil) > budget
}

// Close ends the session: its cursors are closed and the temp tables
// left in its ledger garbage-collected, dropped directly (no wire, no
// faults — the connection is gone). It returns the number of tables
// collected. Idempotent.
func (se *Session) Close() (int, error) {
	se.mu.Lock()
	if se.closed {
		se.mu.Unlock()
		return 0, nil
	}
	se.closed = true
	cursors, orphans := se.cursors, se.temps
	se.cursors, se.temps = nil, nil
	se.mu.Unlock()
	se.srv.mu.Lock()
	delete(se.srv.sessions, se)
	se.srv.mu.Unlock()

	for _, cur := range cursors {
		_ = cur.close()
	}
	n := 0
	var first error
	for _, name := range orphans {
		if err := se.srv.dropTable(name, true); err != nil {
			first = cmp.Or(first, err)
		} else {
			n++
		}
	}
	return n, first
}

// TempTables lists the transfer temp tables currently present in the
// DBMS (leak detection for the chaos harness).
func (s *Server) TempTables() []string {
	return slices.DeleteFunc(s.db.TableNames(), func(name string) bool { return !strings.HasPrefix(name, TempPrefix) })
}

// LiveSessions reports the number of open sessions.
func (s *Server) LiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
