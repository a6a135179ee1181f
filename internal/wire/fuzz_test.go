package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"tango/internal/meta"
	"tango/internal/types"
)

// FuzzDecodeFrame fuzzes the frame decoder: truncated, oversized, and
// garbage input must return one of the typed frame errors — never
// panic — and anything the decoder accepts must re-encode to the same
// bytes and decode identically through the streaming reader.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendFrame(nil, Frame{Type: MsgHello, Payload: AppendHello(nil)}))
	f.Add(AppendFrame(nil, Frame{Type: MsgExec, Session: 7, Request: 42, Payload: []byte("SELECT 1")}))
	f.Add(AppendFrame(nil, Frame{Type: MsgErr, Request: 1, Payload: AppendRemoteError(nil, RemoteError{Code: CodeOverloaded, Msg: "q", Backoff: 1, Queue: 2})}))
	f.Add(AppendFrame(nil, Frame{Type: MsgFetch, Session: 1, Request: 2, Payload: []byte{1, 2, 3}})[:10])
	f.Add(append(AppendFrame(nil, Frame{Type: MsgOK, Request: 5}), "trailing"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, used, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameTooLarge) && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if used < framePrefixLen+frameHeaderLen || used > len(data) {
			t.Fatalf("impossible consumed count %d for %d input bytes", used, len(data))
		}
		// Accepted frames re-encode to the consumed bytes exactly.
		if enc := AppendFrame(nil, fr); !bytes.Equal(enc, data[:used]) {
			t.Fatalf("re-encode mismatch: %x != %x", enc, data[:used])
		}
		// The streaming reader agrees with the in-memory decoder.
		rf, _, rerr := ReadFrame(bytes.NewReader(data[:used]), nil)
		if rerr != nil {
			t.Fatalf("ReadFrame rejected an accepted frame: %v", rerr)
		}
		if rf.Type != fr.Type || rf.Session != fr.Session || rf.Request != fr.Request || !bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame disagrees with DecodeFrame")
		}
	})
}

// codecSeedRequests is one request of every kind the client's
// transport-conformance script sends (internal/client), so both codec
// fuzzers start from the encodings that actually cross the wire.
var codecSeedRequests = []Request{
	{Op: MsgExec, Name: "CREATE TABLE T (K INTEGER, V VARCHAR(20))"},
	{Op: MsgQuery, Name: "SELECT K, V FROM T ORDER BY K", N: 2, TraceHdr: AppendHeader(nil, Header{TraceID: 7, SpanID: 9})},
	{Op: MsgQuery, Name: "SELECT K FROM T", Epoch: 1},
	{Op: MsgQuery, Name: "SELECT K FROM T", Epoch: 300},
	{Op: MsgFetch, Cursor: 1, Seq: 1},
	{Op: MsgFetch, Cursor: 1, Seq: 4},
	{Op: MsgCloseCursor, Cursor: 1},
	{Op: MsgLoad, Name: "L", Seq: 77, Body: EncodeBatch(nil, []types.Tuple{{types.Int(10)}, {types.Int(20)}})},
	{Op: MsgStats, Name: "T", N: 4},
	{Op: MsgSchema, Name: "T"},
	{Op: MsgExec, Name: "CREATE TABLE IF NOT EXISTS TMP_TANGO_orphan (K INTEGER)"},
	{Op: MsgExec, Name: "DROP TABLE IF EXISTS TMP_TANGO_dropped"},
	{Op: MsgCloseSession},
}

// FuzzDecodeRequest: a request payload is outside input. Malformed
// bytes come back as ErrBadFrame, never a panic, and anything accepted
// re-encodes to the same bytes and decodes to the same value.
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range codecSeedRequests {
		enc := AppendRequest(nil, r)
		f.Add(r.Op, enc)
		f.Add(r.Op, enc[:len(enc)/2])
	}
	f.Add(MsgOK, []byte{0, 0, 0, 0, 0})
	f.Add(MsgFetch, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, op byte, data []byte) {
		r, err := DecodeRequest(op, data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		r2, err := DecodeRequest(op, AppendRequest(nil, r))
		if err != nil {
			t.Fatalf("re-encoding of an accepted request rejected: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip: %+v != %+v", r2, r)
		}
	})
}

// FuzzDecodeReply holds the reply decoder — schema and statistics
// decoders included — to the same contract.
func FuzzDecodeReply(f *testing.F) {
	schema := types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}, types.Column{Name: "V", Kind: types.KindString})
	stats := &meta.TableStats{Table: "T", Cardinality: 5, Blocks: 1, AvgTupleSize: 9.5, Columns: map[string]*meta.ColumnStats{
		"k": {Name: "K", Min: types.Int(1), Max: types.Int(5), Distinct: 5, Histogram: &meta.Histogram{Bounds: []float64{1, 3, 5}, Rows: 5}},
	}}
	for _, r := range []Reply{
		{},
		{N: 5},
		{Cursor: 1, Schema: schema},
		{Body: EncodeBatch(nil, []types.Tuple{{types.Int(1), types.Str("a")}})},
		{Body: EncodeBatch(nil, []types.Tuple{{types.Int(1), types.Null, types.Float(2.5)}, {types.Int(9), types.Str(""), types.Str("x")}, {types.Date(3)}})},
		{Stats: &meta.TableStats{Table: "U", Columns: map[string]*meta.ColumnStats{
			"a": {Name: "A", Min: types.Str(""), Max: types.Str("zz\x00")},
			"b": {Name: "B", Min: types.Null, Max: types.Null},
			"c": {Name: "C", Min: types.Float(-1), Max: types.Int(7)},
		}}},
		{EOS: true},
		{Stats: stats},
		{Schema: schema},
		{Epoch: 1},
		{Cursor: 2, Epoch: 300, Schema: schema},
		{Epoch: 17, Stats: stats},
		{Epoch: 1 << 40, Body: EncodeBatch(nil, []types.Tuple{{types.Int(1)}})},
	} {
		enc := AppendReply(nil, r)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{0xff})
	f.Add([]byte{replySchema, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReply(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		r2, err := DecodeReply(AppendReply(nil, r))
		if err != nil {
			t.Fatalf("re-encoding of an accepted reply rejected: %v", err)
		}
		// NaN bounds in fuzzed statistics are not DeepEqual to themselves;
		// the bytes are the canonical comparison.
		if !bytes.Equal(AppendReply(nil, r2), AppendReply(nil, r)) {
			t.Fatalf("round trip: %+v != %+v", r2, r)
		}
	})
}
