// Server-side trace propagation: a statement request that arrives
// with a trace header (see wire.AppendHeader) produces one finished
// "dbms.<op>" span, opened and closed by Handle and parented under the
// exact client span — the retry attempt, the load, the exec — that
// issued the request. The spans are filed with an attached
// telemetry.Collector, keyed by trace ID, until the middleware takes
// them back for stitching into the query's span tree. Without a
// collector (or without a header) a request is served untraced.
package server

import (
	"sync/atomic"

	"tango/internal/telemetry"
	"tango/internal/wire"
)

// SetCollector attaches (or, with nil, detaches) the trace collector.
func (s *Server) SetCollector(c *telemetry.Collector) { s.collector.Store(c) }

// Collector returns the attached trace collector (nil when server-side
// tracing is off).
func (s *Server) Collector() *telemetry.Collector { return s.collector.Load() }

// beginOp opens the server-side span of one wire op from its trace
// header. It returns nil — making every downstream call free — when
// tracing is off, the request carries no trace, or the header is
// undecodable (counted, not fatal: a bad header must not fail the op).
func (s *Server) beginOp(op string, hdr []byte) *telemetry.Span {
	if s.collector.Load() == nil || len(hdr) == 0 {
		return nil
	}
	h, err := wire.DecodeHeader(hdr)
	if err != nil {
		atomic.AddInt64(&s.badHeaders, 1)
		return nil
	}
	if !h.Valid() {
		return nil
	}
	sp := telemetry.NewRemoteSpan("dbms."+op, telemetry.SpanContext{TraceID: h.TraceID, SpanID: h.SpanID})
	sp.Set("site", "dbms")
	return sp
}

// endOp finishes a server-side op span and files it with the
// collector for stitching.
func (s *Server) endOp(sp *telemetry.Span, err error) {
	if err != nil {
		sp.Set("error", err.Error())
	}
	sp.Finish()
	s.collector.Load().Collect(sp)
}
