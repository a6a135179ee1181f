// TCP transport: the Backend's one call implemented over a real socket
// speaking the framed protocol of internal/wire — the request envelope
// is encoded into a frame, the reply decoded straight from the frame
// read back. One Transport multiplexes many
// sessions over a single connection (request IDs pair replies to
// callers; session IDs ride the frame header), redials transparently
// when the connection is lost, and resumes its sessions server-side
// with their resume tokens — so the retry machinery above (sequence-
// numbered fetch replay, load dedup, IF [NOT] EXISTS DDL) works over a
// severed, stalled, or truncated wire exactly as it does in process.
//
// A lost connection surfaces as a typed, retryable ErrConnLost; typed
// server errors (wire faults, admission sheds, shutdown) are
// reconstructed from the RemoteError codec so errors.As/Is chains
// behave identically on both transports.
package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// ErrConnLost is the typed failure of a request whose connection died
// under it (severed by chaos, closed by the server, unreachable). It
// is retryable: the next attempt redials and resumes the session.
type ErrConnLost struct {
	Addr string
	Err  error
}

// Error renders the loss.
func (e *ErrConnLost) Error() string {
	return fmt.Sprintf("client: connection to %s lost: %v", e.Addr, e.Err)
}

// Unwrap exposes the cause.
func (e *ErrConnLost) Unwrap() error { return e.Err }

// Transport is a multiplexed client connection to a TCP server; many
// sessions (Conn) share one. Safe for concurrent use.
type Transport struct {
	addr        string
	dialTimeout time.Duration

	// mu guards the live connection and is held across redials
	// (blocking dial + handshake I/O), so it is an ordered lock class,
	// not a latch.
	mu     sync.Mutex //tango:lock-order tcpdial
	nc     net.Conn
	epoch  uint64 // bumped per successful dial; sessions resume on change
	closed bool

	// wmu serializes frame writes (held across socket writes).
	wmu  sync.Mutex //tango:lock-order tcpxmit
	wbuf []byte

	pmu     sync.Mutex //tango:lock-order tcppending latch
	pending map[uint64]*pendingCall

	reqID atomic.Uint64
	wg    sync.WaitGroup
}

// pendingCall is one in-flight request awaiting its reply.
type pendingCall struct {
	ch  chan rpcResult
	nc  net.Conn // the connection the request went out on
	buf []byte   // the caller's scratch (Request.Buf) the reply is read into
}

// rpcResult is one reply (or transport failure).
type rpcResult struct {
	payload []byte
	err     error
}

// DialTransport creates a transport for addr. The first connection is
// established lazily on the first request.
func DialTransport(addr string) *Transport {
	return &Transport{
		addr:        addr,
		dialTimeout: 5 * time.Second,
		pending:     map[uint64]*pendingCall{},
	}
}

// Close severs the connection and fails every in-flight request; open
// sessions become unusable.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	nc := t.nc
	t.nc = nil
	t.mu.Unlock()
	if nc != nil {
		_ = nc.Close()
		t.failPending(nc, errors.New("transport closed"))
	}
	t.wg.Wait()
	return nil
}

// ensureConn returns the live connection, dialing (and handshaking)
// when there is none. The returned epoch identifies the dial so
// sessions know when they must resume.
func (t *Transport) ensureConn() (net.Conn, uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: errors.New("transport closed")}
	}
	if t.nc != nil {
		return t.nc, t.epoch, nil
	}
	nc, err := net.DialTimeout("tcp", t.addr, t.dialTimeout)
	if err != nil {
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	// Handshake synchronously — the reader starts only on success.
	hello := wire.Frame{Type: wire.MsgHello, Request: t.reqID.Add(1), Payload: wire.AppendHello(nil)}
	_ = nc.SetDeadline(time.Now().Add(t.dialTimeout))
	if _, err := nc.Write(wire.AppendFrame(nil, hello)); err != nil {
		_ = nc.Close()
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	reply, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		_ = nc.Close()
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: err}
	}
	if reply.Type != wire.MsgHelloOK {
		_ = nc.Close()
		if reply.Type == wire.MsgErr {
			if re, derr := wire.DecodeRemoteError(reply.Payload); derr == nil {
				return nil, 0, remoteToError(re)
			}
		}
		return nil, 0, &ErrConnLost{Addr: t.addr, Err: fmt.Errorf("handshake got %s", wire.MsgName(reply.Type))}
	}
	_ = nc.SetDeadline(time.Time{})
	t.nc = nc
	t.epoch++
	epoch := t.epoch
	t.wg.Add(1)
	go t.reader(nc)
	return nc, epoch, nil
}

// reader pumps replies off one connection, pairing them to their
// pending calls by request ID and reading each payload into the buffer
// its call supplied; on connection death it fails that connection's
// in-flight calls with ErrConnLost.
func (t *Transport) reader(nc net.Conn) {
	defer t.wg.Done()
	for {
		var pc *pendingCall
		f, err := wire.ReadFrameInto(nc, func(h wire.Frame) []byte {
			t.pmu.Lock()
			pc = t.pending[h.Request]
			delete(t.pending, h.Request)
			t.pmu.Unlock()
			if pc == nil {
				return nil
			}
			return pc.buf
		})
		if err != nil {
			if pc != nil {
				// Already off the pending table, so failPending misses it.
				pc.ch <- rpcResult{err: &ErrConnLost{Addr: t.addr, Err: err}}
			}
			t.dropConn(nc, err)
			return
		}
		if pc == nil {
			continue // reply to an abandoned request
		}
		switch f.Type {
		case wire.MsgOK:
			pc.ch <- rpcResult{payload: f.Payload}
		case wire.MsgErr:
			re, derr := wire.DecodeRemoteError(f.Payload)
			if derr != nil {
				pc.ch <- rpcResult{err: derr}
			} else {
				pc.ch <- rpcResult{err: remoteToError(re)}
			}
		default:
			pc.ch <- rpcResult{err: fmt.Errorf("client: unexpected reply %s", wire.MsgName(f.Type))}
		}
	}
}

// dropConn retires a dead connection and fails its in-flight calls.
func (t *Transport) dropConn(nc net.Conn, cause error) {
	t.mu.Lock()
	if t.nc == nc {
		t.nc = nil
	}
	t.mu.Unlock()
	_ = nc.Close()
	t.failPending(nc, cause)
}

// failPending fails every pending call registered on nc.
func (t *Transport) failPending(nc net.Conn, cause error) {
	t.pmu.Lock()
	var failed []*pendingCall
	for id, pc := range t.pending {
		if pc.nc == nc {
			failed = append(failed, pc)
			delete(t.pending, id)
		}
	}
	t.pmu.Unlock()
	for _, pc := range failed {
		pc.ch <- rpcResult{err: &ErrConnLost{Addr: t.addr, Err: cause}}
	}
}

// remoteToError reconstructs the typed error a RemoteError carried.
func remoteToError(re wire.RemoteError) error {
	switch re.Code {
	case wire.CodeOverloaded:
		return &server.ErrOverloaded{Backoff: re.Backoff, Queue: int(re.Queue), Reason: re.Msg}
	case wire.CodeFault:
		return &wire.FaultError{Op: re.Op, Kind: re.Kind, Index: re.Index}
	case wire.CodeShutdown:
		return fmt.Errorf("%w (%s)", server.ErrShutdown, re.Msg)
	case wire.CodeStaleMetadata:
		return fmt.Errorf("%w (%s)", server.ErrStaleMetadata, re.Msg)
	default:
		return errors.New(re.Msg)
	}
}

// rpcOn sends one request frame on an already-resolved connection and
// waits for the reply payload, which the reader read into req.Buf (or a
// fresh buffer when that is too small). The caller owns req.Buf until
// the reply arrives, so a buffer is never shared with another call.
// A session request's envelope is encoded straight into the write
// buffer; the connection-scope session plumbing (session 0) is not an
// envelope and sends req.Body as its whole payload.
func (t *Transport) rpcOn(nc net.Conn, session uint32, req wire.Request) ([]byte, error) {
	id := t.reqID.Add(1)
	pc := &pendingCall{ch: make(chan rpcResult, 1), nc: nc, buf: req.Buf}
	t.pmu.Lock()
	t.pending[id] = pc
	t.pmu.Unlock()

	t.wmu.Lock()
	t.wbuf = wire.BeginFrame(t.wbuf[:0], req.Op, session, id)
	if session != 0 {
		t.wbuf = wire.AppendRequest(t.wbuf, req)
	} else {
		t.wbuf = append(t.wbuf, req.Body...)
	}
	t.wbuf = wire.EndFrame(t.wbuf, 0)
	_, werr := nc.Write(t.wbuf)
	t.wmu.Unlock()
	if werr != nil {
		t.pmu.Lock()
		delete(t.pending, id)
		t.pmu.Unlock()
		t.dropConn(nc, werr)
		return nil, &ErrConnLost{Addr: t.addr, Err: werr}
	}
	r := <-pc.ch
	return r.payload, r.err
}

// Conn opens a new session over the transport and wraps it in a
// middleware connection.
func (t *Transport) Conn() (*Conn, error) { return t.open(false) }

// open performs the MsgOpenSession exchange; own marks the transport
// as private to the session, closed with it.
func (t *Transport) open(own bool) (*Conn, error) {
	nc, epoch, err := t.ensureConn()
	if err != nil {
		return nil, err
	}
	reply, err := t.rpcOn(nc, 0, wire.Request{Op: wire.MsgOpenSession})
	if err != nil {
		return nil, err
	}
	id, token, err := wire.DecodeSessionToken(reply)
	if err != nil {
		return nil, err
	}
	return newConn(&remoteConn{t: t, id: id, token: token, epoch: epoch, own: own}), nil
}

// Dial opens a single connection with its own private transport; the
// transport is closed with the connection.
func Dial(addr string) (*Conn, error) {
	t := DialTransport(addr)
	c, err := t.open(true)
	if err != nil {
		_ = t.Close()
	}
	return c, err
}

// remoteConn is one session over a Transport: the TCP Backend.
type remoteConn struct {
	t     *Transport
	id    uint32
	token uint64
	own   bool // the transport is private to this session

	// mu serializes resumption against requests; held across the
	// resume round trip, so ordered, not a latch.
	mu     sync.Mutex //tango:lock-order tcpresume
	epoch  uint64     // transport epoch this session last attached on
	closed bool
}

// call sends one session request, resuming the session first when the
// transport has redialed since the session last attached. ctx is not
// consulted: a caller that gives up abandons the call (retry.go), and
// a dead connection fails it with ErrConnLost.
func (s *remoteConn) call(_ context.Context, req wire.Request) (wire.Reply, error) {
	nc, epoch, err := s.t.ensureConn()
	if err != nil {
		return wire.Reply{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return wire.Reply{}, errors.New("client: session closed")
	}
	if s.epoch != epoch {
		resume := wire.Request{Op: wire.MsgResumeSession, Body: wire.AppendSessionToken(nil, s.id, s.token)}
		if _, err := s.t.rpcOn(nc, 0, resume); err != nil {
			s.mu.Unlock()
			return wire.Reply{}, err
		}
		s.epoch = epoch
	}
	s.mu.Unlock()
	payload, err := s.t.rpcOn(nc, s.id, req)
	if err != nil {
		return wire.Reply{}, err
	}
	return wire.DecodeReply(payload)
}

func (s *remoteConn) SessionID() int64 { return int64(s.id) }

// TakeRemoteSpans returns nil over TCP: spans stay in the server's
// collector (trace stitching is a server-side concern there).
func (s *remoteConn) TakeRemoteSpans(uint64) []*telemetry.Span { return nil }

func (s *remoteConn) Close() (int, error) {
	rep, err := s.call(context.Background(), wire.Request{Op: wire.MsgCloseSession})
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.own {
		_ = s.t.Close()
	}
	return int(rep.N), err
}
