// Framed binary protocol for the real TCP transport. Every request
// and reply crossing a socket is one length-prefixed frame carrying a
// message type, a multiplexing session ID (many sessions share one
// connection), and a request ID that matches replies to their
// requests when several are in flight. Payload encodings reuse the
// batch/schema/trace-header codecs of this package, so the bytes on a
// real socket are the same bytes the in-process path has always
// exchanged.
//
// Frame layout, integers big-endian:
//
//	bytes 0-3   uint32  length of the remainder (1+4+8+len(payload))
//	byte  4     message type
//	bytes 5-8   uint32  session ID (0 = connection scope)
//	bytes 9-16  uint64  request ID (echoed verbatim in the reply)
//	bytes 17-   payload
//
// The first frame on a connection must be MsgHello carrying the magic
// and protocol version; the server answers MsgHelloOK or closes. The
// decoder returns typed errors — never panics — for truncated,
// oversized, and garbage input; FuzzDecodeFrame holds it to that.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// ProtocolVersion is the framed-protocol version spoken by this build.
// Version 2 replaced the per-message payload layouts of version 1 with
// the one request/reply envelope of request.go; version 3 ships batches
// and statistics min/max as columnar blocks (types.AppendBlock) instead
// of row records; version 4 adds the metadata epoch to the request and
// the reply envelope; version 5 drops the per-row insert message (rows
// reach a table by MsgLoad or by INSERT statements through MsgExec),
// renumbering the message types after it; version 6 drops the
// register-temp and forget-temp messages, renumbering the replies. A
// peer at another version is refused at the handshake with
// ErrBadHandshake.
const ProtocolVersion = 6

// Magic opens every MsgHello payload, so a server can reject a
// non-TANGO peer on the first frame instead of mis-parsing garbage.
const Magic = "TNGO"

// frameHeaderLen is the fixed per-frame overhead after the length
// prefix: type (1) + session (4) + request (8).
const frameHeaderLen = 13

// framePrefixLen is the length prefix itself.
const framePrefixLen = 4

// MaxFrameSize caps one frame's encoded remainder. Bulk-load payloads
// are the largest legitimate frames; anything past this is a corrupt
// length prefix or a hostile peer, and the connection is cut rather
// than the allocation attempted.
const MaxFrameSize = 64 << 20

// Message types. Session requests (MsgCloseSession … MsgSchema)
// flow client → server carrying an AppendRequest payload and are
// answered by MsgOK carrying an AppendReply payload, or by MsgErr
// carrying AppendRemoteError, with the request's ID; request.go
// documents which envelope fields each one reads.
const (
	MsgHello         byte = iota + 1 // payload: AppendHello
	MsgHelloOK                       // empty
	MsgOpenSession                   // connection scope, empty; MsgOK payload: session id (uvarint) + resume token (fixed64)
	MsgResumeSession                 // connection scope; payload: session id (uvarint) + resume token (fixed64); empty MsgOK
	MsgCloseSession
	MsgExec
	MsgQuery
	MsgFetch
	MsgCloseCursor
	MsgLoad
	MsgStats
	MsgSchema
	MsgOK
	MsgErr
	msgTypeEnd
)

var msgNames = [...]string{
	0:                "invalid",
	MsgHello:         "hello",
	MsgHelloOK:       "hello-ok",
	MsgOpenSession:   "open-session",
	MsgResumeSession: "resume-session",
	MsgCloseSession:  "close-session",
	MsgExec:          "exec",
	MsgQuery:         "query",
	MsgFetch:         "fetch",
	MsgCloseCursor:   "close-cursor",
	MsgLoad:          "load",
	MsgStats:         "stats",
	MsgSchema:        "schema",
	MsgOK:            "ok",
	MsgErr:           "err",
}

// MsgName renders a message type for diagnostics.
func MsgName(t byte) string {
	if int(t) < len(msgNames) && msgNames[t] != "" {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", t)
}

// MsgOp maps a request message type to the fault-injection op it
// represents on the wire (ok reports false for messages that are not
// fault-injectable: handshake, session plumbing, replies). The chaos
// proxy uses this to drive the PR-4 schedule grammar against real
// connections.
func MsgOp(t byte) (Op, bool) {
	switch t {
	case MsgExec:
		return OpExec, true
	case MsgQuery:
		return OpQuery, true
	case MsgFetch:
		return OpFetch, true
	case MsgLoad:
		return OpLoad, true
	case MsgStats:
		return OpStats, true
	}
	return 0, false
}

// Frame is one decoded protocol frame. Payload aliases the decode
// input; callers that retain it past the next read must copy.
type Frame struct {
	Type    byte
	Session uint32
	Request uint64
	Payload []byte
}

// Typed frame-decode failures. The connection layer treats any of
// them as fatal for the connection (framing is lost), but they are
// ordinary errors — garbage input must never panic.
var (
	// ErrFrameTruncated reports input shorter than its length prefix
	// promises (or shorter than a prefix at all).
	ErrFrameTruncated = errors.New("wire: truncated frame")
	// ErrFrameTooLarge reports a length prefix past MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds max size")
	// ErrBadFrame reports a structurally invalid frame (zero or unknown
	// message type, impossible remainder length).
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrBadHandshake reports a Hello with the wrong magic or an
	// unsupported protocol version.
	ErrBadHandshake = errors.New("wire: bad handshake")
)

// AppendFrame appends the encoding of f to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = BeginFrame(dst, f.Type, f.Session, f.Request)
	return EndFrame(append(dst, f.Payload...), start)
}

// BeginFrame appends a frame header whose length is still open, so the
// payload can be encoded straight into dst instead of being built
// elsewhere and copied in; EndFrame closes it.
func BeginFrame(dst []byte, typ byte, session uint32, request uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, typ)
	dst = binary.BigEndian.AppendUint32(dst, session)
	return binary.BigEndian.AppendUint64(dst, request)
}

// EndFrame fills in the length of the frame BeginFrame opened at
// dst[start:], now that its payload has been appended.
func EndFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-framePrefixLen))
	return dst
}

// DecodeFrame decodes one frame from the front of data, returning the
// bytes consumed. The returned payload aliases data.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < framePrefixLen {
		return Frame{}, 0, ErrFrameTruncated
	}
	rest := binary.BigEndian.Uint32(data)
	if rest > MaxFrameSize {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, rest)
	}
	if rest < frameHeaderLen {
		return Frame{}, 0, fmt.Errorf("%w: remainder %d shorter than header", ErrBadFrame, rest)
	}
	if len(data) < framePrefixLen+int(rest) {
		return Frame{}, 0, ErrFrameTruncated
	}
	body := data[framePrefixLen : framePrefixLen+int(rest)]
	f := Frame{
		Type:    body[0],
		Session: binary.BigEndian.Uint32(body[1:5]),
		Request: binary.BigEndian.Uint64(body[5:13]),
		Payload: body[13:],
	}
	if f.Type == 0 || f.Type >= msgTypeEnd {
		return Frame{}, 0, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, f.Type)
	}
	return f, framePrefixLen + int(rest), nil
}

// ReadFrame reads one frame from r, reusing buf (grown as needed) for
// the payload; the returned payload aliases the returned buffer.
// io.EOF is returned untouched at a clean frame boundary so the
// connection loop can distinguish "peer hung up" from "peer died
// mid-frame" (ErrFrameTruncated).
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	f, err := ReadFrameInto(r, func(Frame) []byte { return buf })
	if f.Payload != nil {
		buf = f.Payload
	}
	return f, buf, err
}

// ReadFrameInto is ReadFrame with the payload buffer chosen once the
// header is known: bufFor sees the frame without its payload and
// returns the scratch to read the payload into (grown when short), so
// a reader can land each reply in the buffer its caller supplied.
func ReadFrameInto(r io.Reader, bufFor func(Frame) []byte) (Frame, error) {
	var hdr [framePrefixLen + frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:framePrefixLen]); err != nil {
		if err != io.EOF {
			err = truncated(err)
		}
		return Frame{}, err
	}
	rest := binary.BigEndian.Uint32(hdr[:])
	if rest > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, rest)
	}
	if rest < frameHeaderLen {
		return Frame{}, fmt.Errorf("%w: remainder %d shorter than header", ErrBadFrame, rest)
	}
	if _, err := io.ReadFull(r, hdr[framePrefixLen:]); err != nil {
		return Frame{}, truncated(err)
	}
	f := Frame{
		Type:    hdr[4],
		Session: binary.BigEndian.Uint32(hdr[5:9]),
		Request: binary.BigEndian.Uint64(hdr[9:]),
	}
	if f.Type == 0 || f.Type >= msgTypeEnd {
		return Frame{}, fmt.Errorf("%w: unknown message type %d", ErrBadFrame, f.Type)
	}
	n := int(rest) - frameHeaderLen
	buf := bufFor(f)
	if cap(buf) < n {
		// Slack, so a stream of slightly growing payloads does not
		// reallocate on every frame.
		buf = make([]byte, n, n+n/4)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return Frame{}, truncated(err)
	}
	f.Payload = buf[:n]
	return f, nil
}

// truncated maps an end of input inside a frame to ErrFrameTruncated.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrFrameTruncated
	}
	return err
}

// AppendHello appends the MsgHello payload: magic + version.
func AppendHello(dst []byte) []byte {
	dst = append(dst, Magic...)
	return append(dst, ProtocolVersion)
}

// CheckHello validates a MsgHello payload and returns the peer's
// protocol version.
func CheckHello(payload []byte) (byte, error) {
	if len(payload) != len(Magic)+1 || string(payload[:len(Magic)]) != Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	v := payload[len(Magic)]
	if v != ProtocolVersion {
		return 0, fmt.Errorf("%w: protocol version %d, want %d", ErrBadHandshake, v, ProtocolVersion)
	}
	return v, nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// CutString decodes a length-prefixed string from the front of data,
// returning the remainder.
func CutString(data []byte) (string, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || uint64(len(data)-k) < n {
		return "", nil, fmt.Errorf("%w: truncated string", ErrBadFrame)
	}
	return string(data[k : k+int(n)]), data[k+int(n):], nil
}

// AppendBytes appends a length-prefixed byte block (the trace-header
// envelope: an empty block means "no trace").
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// CutBytes decodes a length-prefixed byte block, returning the block
// (aliasing data) and the remainder.
func CutBytes(data []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || uint64(len(data)-k) < n {
		return nil, nil, fmt.Errorf("%w: truncated bytes", ErrBadFrame)
	}
	return data[k : k+int(n)], data[k+int(n):], nil
}

// --- typed errors across the wire ---

// ErrCode classifies a MsgErr payload so typed errors survive the
// socket: the client transport reconstructs the same error types the
// in-process path surfaces, keeping the retry classifiers working
// unchanged over TCP.
type ErrCode byte

const (
	// CodeGeneric is a plain (non-retryable) server error: semantic SQL
	// failures, schema mismatches.
	CodeGeneric ErrCode = iota + 1
	// CodeOverloaded is an admission-control shed; the payload carries
	// the server-suggested backoff the client honors before retrying.
	CodeOverloaded
	// CodeFault is an injected wire fault (chaos schedules running
	// server-side) re-surfaced typed.
	CodeFault
	// CodeShutdown is a statement rejected or canceled because the
	// server is draining.
	CodeShutdown
	// CodeStaleMetadata is a query refused because its plan was built
	// under a metadata epoch the DBMS has since left.
	CodeStaleMetadata
)

// RemoteError is the decoded form of a MsgErr payload.
type RemoteError struct {
	Code    ErrCode
	Msg     string
	Backoff time.Duration // CodeOverloaded: server-suggested retry delay
	Queue   int64         // CodeOverloaded: queue depth at shed time
	Op      Op            // CodeFault
	Kind    FaultKind     // CodeFault
	Index   int64         // CodeFault
}

// Error renders the remote failure.
func (e *RemoteError) Error() string {
	switch e.Code {
	case CodeOverloaded:
		return fmt.Sprintf("wire: server overloaded (retry after %v): %s", e.Backoff, e.Msg)
	case CodeShutdown:
		return "wire: server shutting down: " + e.Msg
	case CodeStaleMetadata:
		return "wire: stale metadata: " + e.Msg
	default:
		return e.Msg
	}
}

// AppendRemoteError appends the MsgErr payload encoding of e.
func AppendRemoteError(dst []byte, e RemoteError) []byte {
	dst = append(dst, byte(e.Code))
	dst = binary.AppendUvarint(dst, uint64(e.Backoff))
	dst = binary.AppendVarint(dst, e.Queue)
	dst = append(dst, byte(e.Op), byte(e.Kind))
	dst = binary.AppendVarint(dst, e.Index)
	return AppendString(dst, e.Msg)
}

// DecodeRemoteError decodes a MsgErr payload.
func DecodeRemoteError(payload []byte) (RemoteError, error) {
	if len(payload) < 1 {
		return RemoteError{}, fmt.Errorf("%w: empty error payload", ErrBadFrame)
	}
	e := RemoteError{Code: ErrCode(payload[0])}
	rest := payload[1:]
	backoff, k := binary.Uvarint(rest)
	if k <= 0 {
		return RemoteError{}, fmt.Errorf("%w: truncated error payload", ErrBadFrame)
	}
	e.Backoff = time.Duration(backoff)
	rest = rest[k:]
	queue, k := binary.Varint(rest)
	if k <= 0 {
		return RemoteError{}, fmt.Errorf("%w: truncated error payload", ErrBadFrame)
	}
	e.Queue = queue
	rest = rest[k:]
	if len(rest) < 2 {
		return RemoteError{}, fmt.Errorf("%w: truncated error payload", ErrBadFrame)
	}
	e.Op, e.Kind = Op(rest[0]), FaultKind(rest[1])
	rest = rest[2:]
	idx, k := binary.Varint(rest)
	if k <= 0 {
		return RemoteError{}, fmt.Errorf("%w: truncated error payload", ErrBadFrame)
	}
	e.Index = idx
	rest = rest[k:]
	msg, rest, err := CutString(rest)
	if err != nil {
		return RemoteError{}, err
	}
	if len(rest) != 0 {
		return RemoteError{}, fmt.Errorf("%w: %d trailing error bytes", ErrBadFrame, len(rest))
	}
	e.Msg = msg
	return e, nil
}
