package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestFrameRoundTrip is the property test: any frame with a valid
// message type survives Append → Decode and Append → ReadFrame
// unchanged.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(session uint32, request uint64, n uint16) bool {
		f := Frame{
			Type:    byte(1 + rng.Intn(int(msgTypeEnd)-1)),
			Session: session,
			Request: request,
			Payload: make([]byte, int(n)%4096),
		}
		rng.Read(f.Payload)
		enc := AppendFrame(nil, f)

		got, used, err := DecodeFrame(enc)
		if err != nil || used != len(enc) {
			t.Logf("DecodeFrame: used=%d err=%v", used, err)
			return false
		}
		if got.Type != f.Type || got.Session != f.Session || got.Request != f.Request || !bytes.Equal(got.Payload, f.Payload) {
			return false
		}

		rf, _, err := ReadFrame(bytes.NewReader(enc), nil)
		if err != nil {
			t.Logf("ReadFrame: %v", err)
			return false
		}
		return rf.Type == f.Type && rf.Session == f.Session && rf.Request == f.Request && bytes.Equal(rf.Payload, f.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameDecodeErrors: truncated, oversized, and garbage frames
// must surface the typed errors, never panic.
func TestFrameDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: MsgExec, Session: 3, Request: 9, Payload: []byte("SQL")})

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrameTruncated},
		{"short prefix", valid[:2], ErrFrameTruncated},
		{"cut body", valid[:len(valid)-1], ErrFrameTruncated},
		{"header only prefix", binary.BigEndian.AppendUint32(nil, 4), ErrBadFrame},
		{"oversized", binary.BigEndian.AppendUint32(nil, MaxFrameSize+1), ErrFrameTooLarge},
		{"zero msg type", AppendFrame(nil, Frame{Type: 0}), ErrBadFrame},
		{"unknown msg type", AppendFrame(nil, Frame{Type: msgTypeEnd}), ErrBadFrame},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeFrame(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame: err=%v, want %v", err, tc.want)
			}
			_, _, err := ReadFrame(bytes.NewReader(tc.data), nil)
			if tc.name == "empty" {
				// A clean hangup at a frame boundary is io.EOF, not a
				// truncation: the connection loop distinguishes them.
				if err != io.EOF {
					t.Fatalf("ReadFrame(empty): err=%v, want io.EOF", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame: err=%v, want %v", err, tc.want)
			}
		})
	}
}

// TestHello covers the handshake codec.
func TestHello(t *testing.T) {
	v, err := CheckHello(AppendHello(nil))
	if err != nil || v != ProtocolVersion {
		t.Fatalf("CheckHello(AppendHello): v=%d err=%v", v, err)
	}
	if _, err := CheckHello([]byte("NOPE\x01")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bad magic: %v", err)
	}
	bad := AppendHello(nil)
	bad[len(bad)-1] = ProtocolVersion + 1
	if _, err := CheckHello(bad); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("version skew: %v", err)
	}
	if _, err := CheckHello(nil); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("empty hello: %v", err)
	}
	// A version-1 peer lays its payloads out per message, not in the
	// request envelope, and a version-2 peer ships row records, not
	// blocks: both are refused at the door, typed.
	if _, err := CheckHello([]byte(Magic + "\x01")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("version 1 hello: %v", err)
	}
	if _, err := CheckHello([]byte(Magic + "\x02")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("version 2 hello: %v", err)
	}
	if _, err := CheckHello([]byte(Magic + "\x03")); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("version 3 hello: %v", err)
	}
}

// TestRemoteErrorRoundTrip: every error code survives the MsgErr
// payload codec with all its fields.
func TestRemoteErrorRoundTrip(t *testing.T) {
	cases := []RemoteError{
		{Code: CodeGeneric, Msg: "engine: no such table FOO"},
		{Code: CodeOverloaded, Msg: "queue full", Backoff: 5 * time.Millisecond, Queue: 17},
		{Code: CodeFault, Msg: "injected", Op: OpFetch, Kind: KindDrop, Index: 3},
		{Code: CodeShutdown, Msg: "draining"},
		{Code: CodeStaleMetadata, Msg: "plan read under metadata epoch 3, catalog at 5"},
		{Code: CodeGeneric, Msg: ""},
	}
	for _, e := range cases {
		got, err := DecodeRemoteError(AppendRemoteError(nil, e))
		if err != nil {
			t.Fatalf("decode %+v: %v", e, err)
		}
		if got != e {
			t.Fatalf("round trip: got %+v, want %+v", got, e)
		}
	}
	for _, bad := range [][]byte{nil, {byte(CodeGeneric)}, AppendRemoteError(nil, cases[0])[:4]} {
		if _, err := DecodeRemoteError(bad); err == nil {
			t.Fatalf("DecodeRemoteError(%x) accepted garbage", bad)
		}
	}
}

// TestSleepCtx: a canceled context cuts a simulated delay short
// instead of sleeping it out.
func TestSleepCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	SleepCtx(ctx, 30*time.Second)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("SleepCtx slept %v under a canceled context", d)
	}
}
