// Proxy is the TCP-aware face of the fault injector: a
// man-in-the-middle that forwards framed protocol traffic between a
// real client and a real server, consulting a fault.Injector for every
// request frame so a chaos schedule ("seed=7;stall=2ms;fetch@3=drop")
// drives faults against real connections instead of in-process calls:
//
//   - drop:    the connection is severed mid-exchange — both halves
//     are closed, the client sees a reset/EOF, and its transport must
//     reconnect and resume the session.
//   - stall:   the frame is held for the schedule's stall time before
//     forwarding, delaying everything behind it on that connection —
//     exactly how a congested real pipe behaves.
//   - partial: half of the frame's encoded bytes are forwarded and
//     the connection is then severed, so the server reads a torn
//     frame (framing is lost; it must drop the connection without
//     panicking).
//
// Decisions are made on client→server request frames only (the
// direction the schedule grammar's per-op call indexes count);
// server→client bytes are relayed verbatim.
package wire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"tango/internal/fault"
)

// Proxy forwards framed TCP traffic through a fault injector.
type Proxy struct {
	lis    net.Listener
	target string
	faults *fault.Injector

	mu     sync.Mutex //tango:lock-order proxy latch
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	severed atomic.Int64
}

// NewProxy starts a proxy on a fresh loopback port, forwarding to
// target. A nil injector forwards everything untouched; one with a
// storage trap is refused, as the proxy decides wire ops only.
func NewProxy(target string, f *fault.Injector) (*Proxy, error) {
	if t, ok := f.Trapped(fault.Op.Storage); ok {
		return nil, fmt.Errorf("wire: proxy: %v@%d is a storage fault; the proxy injects wire faults only (exec, query, fetch, load, stats)", t.Op, t.Nth)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{lis: lis, target: target, faults: f, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (dial this instead of the
// real server).
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Severed reports how many connections the proxy cut.
func (p *Proxy) Severed() int64 { return p.severed.Load() }

// Close stops accepting, severs every live connection, and waits for
// the relay goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.lis.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return err
}

// track registers a live connection for Close's sweep; it reports
// false (and closes the conn) when the proxy is already closed.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.conns[c] = struct{}{}
	}
	p.mu.Unlock()
	if closed {
		_ = c.Close()
	}
	return !closed
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return
		}
		if !p.track(client) {
			return
		}
		p.wg.Add(1)
		go p.relay(client)
	}
}

// relay serves one proxied connection: dial the target, pump the
// server→client direction verbatim, and run the fault-deciding
// client→server frame loop in this goroutine.
func (p *Proxy) relay(client net.Conn) {
	defer p.wg.Done()
	defer p.untrack(client)
	defer client.Close()
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	if !p.track(server) {
		return
	}
	defer p.untrack(server)
	defer server.Close()

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_, _ = io.Copy(client, server)
		// Server direction ended (clean close or sever): cut the client
		// half too so the frame loop below unblocks.
		_ = client.Close()
	}()

	var buf []byte
	var out []byte
	for {
		f, rbuf, err := ReadFrame(client, buf)
		if err != nil {
			// Peer gone or framing lost: sever both halves.
			_ = server.Close()
			return
		}
		buf = rbuf
		var d fault.Decision
		if op, ok := MsgOp(f.Type); ok {
			d = p.faults.Decide(op)
		}
		out = AppendFrame(out[:0], f)
		switch d.Kind {
		case fault.KindStall:
			SleepCtx(nil, d.Stall)
		case fault.KindDrop:
			// Sever: the request never reaches the server and the client
			// loses the connection (and every session multiplexed on it —
			// resumption is the transport's problem).
			p.severed.Add(1)
			_ = server.Close()
			_ = client.Close()
			return
		case fault.KindPartial:
			// Truncate: forward half the frame, then sever. The server
			// reads a torn frame and must drop the connection cleanly.
			_, _ = server.Write(out[:len(out)/2])
			_ = server.Close()
			_ = client.Close()
			return
		}
		if _, err := server.Write(out); err != nil {
			_ = client.Close()
			return
		}
	}
}
