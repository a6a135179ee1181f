// The transport seam: a connection reaches its server session through
// exactly one call carrying a wire.Request and returning a wire.Reply.
// The typed operations, the retry machinery, the cursor's fetch loop
// and a temp table's create and drop are written once above it
// (client.go) and run unchanged over both transports: the loopback
// below hands the Request value to server.Session.Handle in process,
// tcp.go frames the same value onto a socket whose far end decodes it
// and calls Handle too.
package client

import (
	"context"

	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// Backend is one server session as the connection sees it.
type Backend interface {
	// call performs one request/reply exchange with the session.
	call(ctx context.Context, req wire.Request) (wire.Reply, error)
	// SessionID is the server-side session identifier.
	SessionID() int64
	// TakeRemoteSpans drains server-collected spans of one trace (may
	// return nil when the transport cannot stitch remotely).
	TakeRemoteSpans(traceID uint64) []*telemetry.Span
	// Close ends the session, returning the temp-table GC count.
	Close() (int, error)
}

// loopback is the in-process transport: no encoding, no socket — and
// therefore the one place the simulated link (wire.Latency) is billed.
type loopback struct {
	srv *server.Server
	se  *server.Session
}

// call hands the request to the session and bills the exchange: one
// round trip plus the transmit time of the bytes that crossed. Failed
// calls and end-of-stream answers are free, as are the bookkeeping ops. A
// fetch is billed like any other statement, so a cursor pays one round
// trip per batch.
func (l *loopback) call(ctx context.Context, req wire.Request) (wire.Reply, error) {
	rep, err := l.se.Handle(ctx, req)
	if _, statement := wire.MsgOp(req.Op); !statement || err != nil || rep.EOS {
		return rep, err
	}
	wire.SleepCtx(ctx, l.srv.Latency().Wire(len(req.Name)+len(req.Body)+len(rep.Body)))
	return rep, nil
}

func (l *loopback) SessionID() int64 { return l.se.ID() }

func (l *loopback) TakeRemoteSpans(traceID uint64) []*telemetry.Span {
	return l.srv.Collector().Take(traceID)
}

func (l *loopback) Close() (int, error) { return l.se.Close() }
