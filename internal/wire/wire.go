// Package wire implements the client/server boundary between the
// middleware and the DBMS: batched binary row serialization (every row
// crossing the boundary is really encoded and decoded, as over JDBC)
// and an optional latency model for round trips and bandwidth. The
// batch size is the paper's Oracle "row prefetch" setting.
package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"tango/internal/types"
)

// DefaultPrefetch is the default number of rows per fetch batch.
const DefaultPrefetch = 256

// bufPool recycles encode scratch buffers across batches. Steady-state
// fetch and load traffic encodes one batch at a time; without the pool
// every batch allocates (and grows) a fresh byte slice.
var bufPool = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 1<<14)
		return &b
	},
}

// maxPooledBuf caps the buffers the pool retains; one-off giant batches
// (bulk loads of whole relations) should not pin megabytes forever.
const maxPooledBuf = 1 << 22

// GetBuf borrows an empty scratch buffer from the encode pool.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns a scratch buffer to the encode pool. The caller must
// not touch the slice afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// EncodeBatch appends the encoding of rows to dst: a row count
// followed by each tuple.
func EncodeBatch(dst []byte, rows []types.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = types.EncodeTuple(dst, r)
	}
	return dst
}

// DecodeBatch decodes a batch produced by EncodeBatch.
func DecodeBatch(data []byte) ([]types.Tuple, error) {
	return DecodeBatchInto(nil, data)
}

// DecodeBatchInto decodes a batch appending to dst, so a steady-state
// consumer can recycle one row-header slice across fetches. The rows
// are decoded in one validating pass by a types.Decoder, so they share
// one value slab and one string slab per batch: they do not alias data,
// consumers may retain them, and a retained row keeps its whole batch's
// slabs alive.
func DecodeBatchInto(dst []types.Tuple, data []byte) ([]types.Tuple, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("wire: bad batch header")
	}
	// Every row takes at least a byte, which bounds the rows a corrupt
	// count can make room for.
	rows := int(min(n, uint64(len(data)-k)))
	if dst == nil {
		dst = make([]types.Tuple, 0, rows)
	}
	d := types.NewDecoder(rows, nil)
	start, pos := len(dst), k
	for i := uint64(0); i < n; i++ {
		t, used, err := d.Decode(data[pos:])
		if err != nil {
			return nil, fmt.Errorf("wire: row %d: %w", i, err)
		}
		pos += used
		dst = append(dst, t)
	}
	if pos != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-pos)
	}
	d.Own(dst[start:])
	return dst, nil
}

// EncodeSchema serializes a schema (names and kinds).
func EncodeSchema(dst []byte, s types.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Len()))
	for _, c := range s.Cols {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.Kind))
	}
	return dst
}

// DecodeSchema deserializes a schema and returns the bytes consumed.
func DecodeSchema(data []byte) (types.Schema, int, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)) { // a column takes at least two bytes
		return types.Schema{}, 0, fmt.Errorf("wire: bad schema header")
	}
	pos := k
	cols := make([]types.Column, n)
	for i := range cols {
		l, k2 := binary.Uvarint(data[pos:])
		if k2 <= 0 || l > uint64(len(data)) || pos+k2+int(l)+1 > len(data) {
			return types.Schema{}, 0, fmt.Errorf("wire: truncated schema")
		}
		pos += k2
		cols[i].Name = string(data[pos : pos+int(l)])
		pos += int(l)
		cols[i].Kind = types.Kind(data[pos])
		pos++
	}
	return types.Schema{Cols: cols}, pos, nil
}

// Latency models the network between middleware and DBMS. The zero
// value is a free network (no sleeping), appropriate for unit tests;
// experiments configure realistic values to make transfer costs
// visible, as they are over a real JDBC connection. The client's
// in-process loopback transport is what bills it.
type Latency struct {
	// RoundTrip is charged once per request (query, fetch, exec).
	RoundTrip time.Duration
	// BytesPerSecond throttles payload transfer; 0 means unlimited.
	BytesPerSecond float64
}

// Transmit returns the time to ship n payload bytes one way.
func (l Latency) Transmit(n int) time.Duration {
	if l.BytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(float64(n) / l.BytesPerSecond * float64(time.Second))
}

// Wire returns the delay of one request/response exchange carrying n
// payload bytes: one round trip plus the transmit time.
func (l Latency) Wire(n int) time.Duration {
	return l.RoundTrip + l.Transmit(n)
}

// SleepCtx sleeps for d or until ctx is canceled, whichever comes
// first: every simulated delay (the loopback transport's latency bill,
// injected stalls) goes through it, so a dead session or a draining
// server never sleeps one out.
func SleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
