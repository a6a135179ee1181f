// Real TCP transport for the server: a net.Listener accept loop
// speaking the framed binary protocol of internal/wire. A session
// request is frame → wire.DecodeRequest → Session.Handle →
// wire.AppendReply → frame; everything the request means lives in
// Handle, and what is left here is what only a socket has — the
// attached connection, the per-session ordered worker, the resume
// token and the grace reaper. Many sessions multiplex over one
// connection (the frame header carries the session ID); requests of
// one session execute strictly in arrival order on its worker. So a
// retry waits here behind the attempt its client abandoned, where in
// process the two run concurrently; the cursor replay and load-dedup
// idempotency protocols make either order safe.
//
// Sessions survive their connection: when a connection dies (chaos
// proxy sever, client crash-and-redial), its sessions detach and stay
// alive for a resume grace period. A client that reconnects proves
// ownership with the session's resume token (MsgResumeSession) and
// continues — open cursors, temp tables, sequence numbers intact — so
// the client's retry machinery rides out severed connections. Sessions
// not resumed in time are garbage-collected: cursors closed, temp
// tables dropped, nothing leaked.
//
// Shutdown is a graceful drain: stop accepting, reject new statements
// with typed errors (ErrShutdown / wire.CodeShutdown), give in-flight
// statements a bounded window to finish, then cancel the rest via the
// context every Handle call runs under and collect every session.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"tango/internal/wire"
)

// TCPConfig tunes the TCP front end. Zero values get defaults.
type TCPConfig struct {
	// Admission, when enabled, is installed on the server.
	Admission AdmissionConfig
	// ResumeGrace is how long a detached session awaits resumption
	// before it is garbage-collected. Default 10s.
	ResumeGrace time.Duration
	// DrainTimeout bounds the graceful-drain wait for in-flight
	// statements on Close. Default 5s.
	DrainTimeout time.Duration
}

const (
	// readTimeout is the per-connection frame-read deadline: a
	// connection idle past it is cut (its sessions detach and await
	// resumption).
	readTimeout = 2 * time.Minute
	// writeTimeout bounds one reply write.
	writeTimeout = 30 * time.Second
)

func (c TCPConfig) resumeGrace() time.Duration {
	if c.ResumeGrace > 0 {
		return c.ResumeGrace
	}
	return 10 * time.Second
}

func (c TCPConfig) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 5 * time.Second
}

// TCPServer serves a Server over real TCP.
type TCPServer struct {
	srv    *Server
	lis    net.Listener
	cfg    TCPConfig
	ctx    context.Context // canceled when the drain window closes
	cancel context.CancelFunc

	mu       sync.Mutex //tango:lock-order tcpsrv latch
	conns    map[net.Conn]struct{}
	sessions map[uint32]*remoteSession
	tokens   *rand.Rand
	closed   bool

	wg sync.WaitGroup
}

// ListenAndServe starts serving srv on addr ("127.0.0.1:0" picks a
// free port; see Addr). The admission configuration, when enabled, is
// installed on the server. Every request is handled under the drain
// context, so shutdown cuts queue waits and injected stalls short.
func ListenAndServe(srv *Server, addr string, cfg TCPConfig) (*TCPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPServer{
		srv:      srv,
		lis:      lis,
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		conns:    map[net.Conn]struct{}{},
		sessions: map[uint32]*remoteSession{},
		tokens:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if cfg.Admission.Enabled() {
		srv.SetAdmission(cfg.Admission)
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.reaper()
	return t, nil
}

// Addr returns the bound listen address.
func (t *TCPServer) Addr() string { return t.lis.Addr().String() }

// Server returns the served façade.
func (t *TCPServer) Server() *Server { return t.srv }

// LiveConns reports the number of open TCP connections.
func (t *TCPServer) LiveConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// LiveRemoteSessions reports the number of live (attached or detached)
// TCP sessions.
func (t *TCPServer) LiveRemoteSessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// Close gracefully drains and shuts the transport down: stop
// accepting, reject new statements typed, wait DrainTimeout for
// in-flight statements, cancel stragglers, sever connections, collect
// every session (cursors closed, temp tables dropped), and join every
// goroutine.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()

	err := t.lis.Close()
	t.srv.StartDrain()
	deadline := time.Now().Add(t.cfg.drainTimeout())
	for t.srv.InFlight() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	t.cancel()

	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	sessions := make([]*remoteSession, 0, len(t.sessions))
	for _, rs := range t.sessions {
		sessions = append(sessions, rs)
	}
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, rs := range sessions {
		if rs.close() {
			t.srv.CountDrained()
		}
	}
	t.wg.Wait()
	return err
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		nc, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = nc.Close()
			return
		}
		t.conns[nc] = struct{}{}
		t.mu.Unlock()
		t.srv.CountConnection()
		t.wg.Add(1)
		go t.serveConn(nc)
	}
}

// reaper garbage-collects sessions detached longer than the resume
// grace: their client is gone for good, so their cursors, snapshots,
// and temp tables are reclaimed.
func (t *TCPServer) reaper() {
	defer t.wg.Done()
	tick := t.cfg.resumeGrace() / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-t.ctx.Done():
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-t.cfg.resumeGrace())
		t.mu.Lock()
		var expired []*remoteSession
		for _, rs := range t.sessions {
			rs.mu.Lock()
			if rs.owner == nil && !rs.detachedAt.IsZero() && rs.detachedAt.Before(cutoff) {
				expired = append(expired, rs)
			}
			rs.mu.Unlock()
		}
		t.mu.Unlock()
		for _, rs := range expired {
			rs.close()
		}
	}
}

// tcpConn is the per-connection server state.
type tcpConn struct {
	t  *TCPServer
	nc net.Conn

	// wmu serializes reply writes from the session workers. Held across
	// socket writes, so it is an ordered lock class, not a latch.
	wmu  sync.Mutex //tango:lock-order tcpwrite
	wbuf []byte

	// smu guards the sessions attached to this connection.
	smu      sync.Mutex //tango:lock-order tcpconn latch
	attached map[uint32]*remoteSession
}

// write encodes and sends one frame under the write deadline.
func (c *tcpConn) write(f wire.Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.AppendFrame(c.wbuf[:0], f)
	return c.flush()
}

// flush sends the write buffer. Caller holds wmu.
func (c *tcpConn) flush() error {
	_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := c.nc.Write(c.wbuf)
	return err
}

// reply answers req with MsgOK, encoding rep straight into the write
// buffer: a fetched batch is copied once between the buffer Handle
// encoded it into and the socket.
func (c *tcpConn) reply(req wire.Frame, rep wire.Reply) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = wire.BeginFrame(c.wbuf[:0], wire.MsgOK, req.Session, req.Request)
	c.wbuf = wire.EndFrame(wire.AppendReply(c.wbuf, rep), 0)
	_ = c.flush()
}

// replyErr sends a MsgErr carrying err as a typed RemoteError.
func (c *tcpConn) replyErr(req wire.Frame, err error) {
	_ = c.write(wire.Frame{
		Type:    wire.MsgErr,
		Session: req.Session,
		Request: req.Request,
		Payload: wire.AppendRemoteError(nil, toRemoteError(err)),
	})
}

// toRemoteError classifies err into the wire's typed error codes so
// the client transport can reconstruct the same error types the
// in-process path surfaces.
func toRemoteError(err error) wire.RemoteError {
	var ov *ErrOverloaded
	if errors.As(err, &ov) {
		return wire.RemoteError{
			Code:    wire.CodeOverloaded,
			Msg:     ov.Reason,
			Backoff: ov.Backoff,
			Queue:   int64(ov.Queue),
		}
	}
	var fe *wire.FaultError
	if errors.As(err, &fe) {
		return wire.RemoteError{Code: wire.CodeFault, Msg: err.Error(), Op: fe.Op, Kind: fe.Kind, Index: fe.Index}
	}
	if errors.Is(err, ErrShutdown) || errors.Is(err, context.Canceled) {
		return wire.RemoteError{Code: wire.CodeShutdown, Msg: err.Error()}
	}
	if errors.Is(err, ErrStaleMetadata) {
		return wire.RemoteError{Code: wire.CodeStaleMetadata, Msg: err.Error()}
	}
	return wire.RemoteError{Code: wire.CodeGeneric, Msg: err.Error()}
}

// serveConn runs one connection: handshake, then the frame dispatch
// loop. Session-scoped requests are handed to the session's worker so
// each session executes strictly in order while sessions proceed
// concurrently; a full worker queue blocks the reader — backpressure
// through the TCP window, exactly like a real pipe.
func (t *TCPServer) serveConn(nc net.Conn) {
	defer t.wg.Done()
	c := &tcpConn{t: t, nc: nc, attached: map[uint32]*remoteSession{}}
	defer func() {
		_ = nc.Close()
		t.mu.Lock()
		delete(t.conns, nc)
		t.mu.Unlock()
		c.detachAll()
	}()

	// Handshake: the first frame must be a well-formed Hello.
	_ = nc.SetReadDeadline(time.Now().Add(readTimeout))
	hello, _, err := wire.ReadFrame(nc, nil)
	if err != nil || hello.Type != wire.MsgHello {
		return
	}
	if _, err := wire.CheckHello(hello.Payload); err != nil {
		c.replyErr(hello, err)
		return
	}
	if err := c.write(wire.Frame{Type: wire.MsgHelloOK, Request: hello.Request}); err != nil {
		return
	}

	for {
		_ = nc.SetReadDeadline(time.Now().Add(readTimeout))
		// A fresh buffer per frame: the payload's ownership passes to the
		// session worker executing the request.
		f, _, err := wire.ReadFrame(nc, nil)
		if err != nil {
			return
		}
		switch f.Type {
		case wire.MsgOpenSession:
			t.openSession(c, f)
		case wire.MsgResumeSession:
			t.resumeSession(c, f)
		default:
			c.smu.Lock()
			rs := c.attached[f.Session]
			c.smu.Unlock()
			if rs == nil {
				c.replyErr(f, fmt.Errorf("server: unknown session %d on this connection", f.Session))
				continue
			}
			if !rs.enqueue(tcpJob{f: f, c: c}) {
				c.replyErr(f, ErrShutdown)
			}
		}
	}
}

// detachAll detaches every session attached to a dying connection;
// they await resumption (or the reaper).
func (c *tcpConn) detachAll() {
	c.smu.Lock()
	attached := c.attached
	c.attached = map[uint32]*remoteSession{}
	c.smu.Unlock()
	for _, rs := range attached {
		rs.mu.Lock()
		if rs.owner == c {
			rs.owner = nil
			rs.detachedAt = time.Now()
		}
		rs.mu.Unlock()
	}
}

// openSession creates a session, attaches it to the connection, and
// replies with its wire ID and resume token.
func (t *TCPServer) openSession(c *tcpConn, f wire.Frame) {
	if t.srv.Draining() {
		c.replyErr(f, ErrShutdown)
		return
	}
	se := t.srv.NewSession()
	rs := &remoteSession{
		t:    t,
		se:   se,
		id:   uint32(se.ID()),
		work: make(chan tcpJob, 32),
		done: make(chan struct{}),
	}
	t.mu.Lock()
	rs.token = t.tokens.Uint64()
	t.sessions[rs.id] = rs
	t.mu.Unlock()
	rs.attach(c)
	t.srv.CountSessionAccepted()
	t.wg.Add(1)
	go rs.run()
	_ = c.write(wire.Frame{Type: wire.MsgOK, Request: f.Request, Payload: wire.AppendSessionToken(nil, rs.id, rs.token)})
}

// resumeSession re-attaches a detached session to a new connection
// after the client proved ownership with the resume token.
func (t *TCPServer) resumeSession(c *tcpConn, f wire.Frame) {
	id, token, err := wire.DecodeSessionToken(f.Payload)
	if err != nil {
		c.replyErr(f, err)
		return
	}
	t.mu.Lock()
	rs := t.sessions[id]
	t.mu.Unlock()
	if rs == nil {
		c.replyErr(f, fmt.Errorf("server: session %d expired (resume grace elapsed)", id))
		return
	}
	rs.mu.Lock()
	ok := rs.token == token && !rs.closed
	old := rs.owner
	rs.mu.Unlock()
	if !ok {
		c.replyErr(f, fmt.Errorf("server: session %d resume rejected", id))
		return
	}
	if old != nil && old != c {
		// The client redialed while the old connection is still up
		// (half-open pipe): the new connection wins.
		old.smu.Lock()
		delete(old.attached, rs.id)
		old.smu.Unlock()
	}
	rs.attach(c)
	t.srv.CountSessionAccepted()
	_ = c.write(wire.Frame{Type: wire.MsgOK, Request: f.Request})
}

// tcpJob is one session-scoped request awaiting its worker.
type tcpJob struct {
	f wire.Frame
	c *tcpConn
}

// remoteSession is what a socket adds to a Session: the connection it
// is attached to, its ordered worker, and its resume token.
type remoteSession struct {
	t     *TCPServer
	se    *Session
	id    uint32
	token uint64
	work  chan tcpJob
	done  chan struct{}
	buf   []byte // the worker's reply-body scratch, reused across requests

	mu         sync.Mutex //tango:lock-order remotesess latch
	owner      *tcpConn
	detachedAt time.Time
	closed     bool
}

// attach binds the session to a connection.
func (rs *remoteSession) attach(c *tcpConn) {
	rs.mu.Lock()
	rs.owner = c
	rs.detachedAt = time.Time{}
	rs.mu.Unlock()
	c.smu.Lock()
	c.attached[rs.id] = rs
	c.smu.Unlock()
}

// enqueue hands a request to the worker, blocking for backpressure; it
// reports false when the session (or server) is shutting down.
func (rs *remoteSession) enqueue(j tcpJob) bool {
	select {
	case rs.work <- j:
		return true
	case <-rs.done:
		return false
	case <-rs.t.ctx.Done():
		return false
	}
}

// close tears the session down: the Session is closed (cursors closed,
// temp tables garbage-collected — a no-op when the client already asked
// for that), the worker released, the registrations dropped. It
// reports whether this call did the teardown (false when already
// closed).
func (rs *remoteSession) close() bool {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return false
	}
	rs.closed = true
	owner := rs.owner
	rs.owner = nil
	rs.mu.Unlock()

	_, _ = rs.se.Close()
	close(rs.done)

	rs.t.mu.Lock()
	delete(rs.t.sessions, rs.id)
	rs.t.mu.Unlock()
	if owner != nil {
		owner.smu.Lock()
		delete(owner.attached, rs.id)
		owner.smu.Unlock()
	}
	return true
}

// run is the session worker: requests execute strictly in arrival
// order, so sequence-numbered replay and load dedup see the same
// serial stream they see in process.
func (rs *remoteSession) run() {
	defer rs.t.wg.Done()
	for {
		select {
		case <-rs.done:
			return
		case <-rs.t.ctx.Done():
			return
		case j := <-rs.work:
			rs.handle(j)
			if j.f.Type == wire.MsgCloseSession {
				return
			}
		}
	}
}

// handle executes one request and writes its reply.
func (rs *remoteSession) handle(j tcpJob) {
	req, err := wire.DecodeRequest(j.f.Type, j.f.Payload)
	if err != nil {
		j.c.replyErr(j.f, err)
		return
	}
	req.Buf = rs.buf
	rep, err := rs.se.Handle(rs.t.ctx, req)
	if req.Op == wire.MsgCloseSession {
		// Torn down before the acknowledgment, so a client that has seen
		// its close answered never finds the session still registered.
		rs.close()
	}
	if err != nil {
		j.c.replyErr(j.f, err)
		return
	}
	j.c.reply(j.f, rep)
	if rep.Body != nil {
		rs.buf = rep.Body // keep the grown scratch
	}
}
