// The request envelope: every operation a client asks of a server
// session is one Request answered by one Reply, whether it crosses a
// socket (one frame each way, the frame type carrying Request.Op) or is
// handed to server.Session.Handle in process. This file is the only
// place the per-op payload layouts live.
//
// Request payload (protocol version 6), the same for every op:
//
//	trace header  uvarint length + AppendHeader bytes (empty = untraced)
//	cursor        uvarint
//	seq           varint
//	n             varint
//	epoch         uvarint
//	name          uvarint length + bytes
//	body          the rest of the payload
//
// Which fields an op reads:
//
//	MsgExec          name = SQL text                      → Reply.N rows affected
//	MsgQuery         name = SQL text, n = rows per fetch  → Reply.Cursor, Reply.Schema
//	                 (0 = sized by bytes: DefaultPrefetch
//	                 rows first, growing toward 64 KiB),
//	                 epoch = the metadata epoch the plan
//	                 was built under (0 = unchecked; a
//	                 stale one is refused with
//	                 CodeStaleMetadata)
//	MsgFetch         cursor, seq = 1-based batch number   → Reply.Body batch, or Reply.EOS
//	                 (0 = the next one)
//	MsgCloseCursor   cursor                               → empty reply
//	MsgLoad          name = table, seq = dedup sequence   → Reply.N rows stored
//	                 (0 = none), body = EncodeBatch
//	MsgStats         name = table, n = histogram buckets  → Reply.Stats
//	MsgSchema        name = table                         → Reply.Schema
//	MsgCloseSession  —                                    → Reply.N ledger temp tables dropped
//
// Reply payload (a MsgOK frame):
//
//	flags   byte: 1 = end of stream, 2 = schema follows, 4 = stats follow
//	n       varint
//	cursor  uvarint
//	epoch   uvarint: the DBMS metadata epoch — for a schema or stats
//	        read the one the payload was read under, otherwise the
//	        one after the op
//	schema  EncodeSchema, when flagged
//	then    AppendTableStats to the end of the payload when flagged,
//	        otherwise the body (a fetch's EncodeBatch) to the end
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"tango/internal/meta"
	"tango/internal/types"
)

// Request is one operation on a server session.
type Request struct {
	// Op is the message type (MsgCloseSession … MsgSchema). On a socket it
	// rides the frame header, not the payload.
	Op       byte
	TraceHdr []byte
	Cursor   uint64
	Seq      int64
	N        int64
	// Epoch is the metadata epoch a MsgQuery's plan was built under;
	// 0 leaves the query unchecked.
	Epoch uint64
	Name  string
	Body  []byte
	// Buf is caller-owned scratch the reply Body is encoded into, so
	// the caller decides when that memory is reused. It never crosses
	// the wire.
	Buf []byte
}

// Reply answers one Request.
type Reply struct {
	N      int64
	Cursor uint64
	EOS    bool
	// Epoch is the server's metadata epoch (see the reply layout).
	Epoch  uint64
	Schema types.Schema
	Stats  *meta.TableStats
	Body   []byte
}

const (
	replyEOS byte = 1 << iota
	replySchema
	replyStats
)

// AppendRequest appends the payload encoding of r (everything but Op
// and Buf) to dst.
func AppendRequest(dst []byte, r Request) []byte {
	dst = AppendBytes(dst, r.TraceHdr)
	dst = binary.AppendUvarint(dst, r.Cursor)
	dst = binary.AppendVarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.N)
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = AppendString(dst, r.Name)
	return append(dst, r.Body...)
}

// DecodeRequest decodes the payload of a request frame of type op.
// TraceHdr and Body alias payload.
func DecodeRequest(op byte, payload []byte) (Request, error) {
	if op < MsgCloseSession || op > MsgSchema {
		return Request{}, fmt.Errorf("%w: %s is not a session request", ErrBadFrame, MsgName(op))
	}
	r := Request{Op: op}
	hdr, rest, err := CutBytes(payload)
	if err != nil {
		return Request{}, err
	}
	if len(hdr) > 0 {
		r.TraceHdr = hdr
	}
	var k int
	if r.Cursor, k = binary.Uvarint(rest); k <= 0 {
		return Request{}, fmt.Errorf("%w: truncated request (cursor)", ErrBadFrame)
	}
	rest = rest[k:]
	if r.Seq, k = binary.Varint(rest); k <= 0 {
		return Request{}, fmt.Errorf("%w: truncated request (seq)", ErrBadFrame)
	}
	rest = rest[k:]
	if r.N, k = binary.Varint(rest); k <= 0 {
		return Request{}, fmt.Errorf("%w: truncated request (n)", ErrBadFrame)
	}
	rest = rest[k:]
	if r.Epoch, k = binary.Uvarint(rest); k <= 0 {
		return Request{}, fmt.Errorf("%w: truncated request (epoch)", ErrBadFrame)
	}
	if r.Name, rest, err = CutString(rest[k:]); err != nil {
		return Request{}, err
	}
	if len(rest) > 0 {
		r.Body = rest
	}
	return r, nil
}

// AppendReply appends the MsgOK payload encoding of r to dst.
func AppendReply(dst []byte, r Reply) []byte {
	var flags byte
	if r.EOS {
		flags |= replyEOS
	}
	if r.Schema.Cols != nil {
		flags |= replySchema
	}
	if r.Stats != nil {
		flags |= replyStats
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, r.N)
	dst = binary.AppendUvarint(dst, r.Cursor)
	dst = binary.AppendUvarint(dst, r.Epoch)
	if r.Schema.Cols != nil {
		dst = EncodeSchema(dst, r.Schema)
	}
	if r.Stats != nil {
		return AppendTableStats(dst, r.Stats)
	}
	return append(dst, r.Body...)
}

// DecodeReply decodes a MsgOK payload. Body aliases payload.
func DecodeReply(payload []byte) (Reply, error) {
	if len(payload) < 1 || payload[0]&^(replyEOS|replySchema|replyStats) != 0 {
		return Reply{}, fmt.Errorf("%w: bad reply flags", ErrBadFrame)
	}
	flags, rest := payload[0], payload[1:]
	r := Reply{EOS: flags&replyEOS != 0}
	var k int
	if r.N, k = binary.Varint(rest); k <= 0 {
		return Reply{}, fmt.Errorf("%w: truncated reply (n)", ErrBadFrame)
	}
	rest = rest[k:]
	if r.Cursor, k = binary.Uvarint(rest); k <= 0 {
		return Reply{}, fmt.Errorf("%w: truncated reply (cursor)", ErrBadFrame)
	}
	rest = rest[k:]
	if r.Epoch, k = binary.Uvarint(rest); k <= 0 {
		return Reply{}, fmt.Errorf("%w: truncated reply (epoch)", ErrBadFrame)
	}
	rest = rest[k:]
	if flags&replySchema != 0 {
		schema, used, err := DecodeSchema(rest)
		if err != nil {
			return Reply{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		r.Schema, rest = schema, rest[used:]
	}
	if flags&replyStats != 0 {
		st, err := DecodeTableStats(rest)
		if err != nil {
			return Reply{}, err
		}
		r.Stats = st
	} else if len(rest) > 0 {
		r.Body = rest
	}
	return r, nil
}

// AppendSessionToken appends a session's wire ID and resume token: the
// MsgOpenSession reply and the MsgResumeSession request.
func AppendSessionToken(dst []byte, id uint32, token uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(id))
	return binary.BigEndian.AppendUint64(dst, token)
}

// DecodeSessionToken decodes an AppendSessionToken payload.
func DecodeSessionToken(payload []byte) (id uint32, token uint64, err error) {
	id64, k := binary.Uvarint(payload)
	if k <= 0 || id64 > math.MaxUint32 || len(payload[k:]) != 8 {
		return 0, 0, fmt.Errorf("%w: malformed session token", ErrBadFrame)
	}
	return uint32(id64), binary.BigEndian.Uint64(payload[k:]), nil
}
