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

// DefaultPrefetch is the row count of a cursor's first fetch when the
// client leaves the fetch size unset (0): the server then sizes each
// later fetch by bytes, doubling the rows toward 64 KiB a fetch. A
// client that sets a row count > 0 gets exactly that many per fetch.
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

// EncodeBatch appends the encoding of rows to dst: one block
// (types.AppendBlock), or a block per run of rows the block codec keeps
// together when their arities differ or they overflow its value cap.
// Every block after the first is dense (denseRows), so DecodeBatchInto
// takes every batch EncodeBatch writes.
func EncodeBatch(dst []byte, rows []types.Tuple) []byte {
	dst, n := types.AppendBlock(dst, rows)
	for rows = rows[n:]; len(rows) > 0; rows = rows[n:] {
		dst, n = types.AppendBlock(dst, rows[:denseRows(rows)])
	}
	return dst
}

// dense reports whether a block of rows rows of cols columns in size
// bytes takes a byte per row and per value, as a row record does. A
// NULL or constant column takes no byte per row, so a 5-byte block can
// hold 16,384 rows; a batch's blocks after the first must be dense,
// which keeps what decoding a batch allocates linear in its length.
// A one-row block is always dense: its header and column tags suffice.
func dense(rows, cols, size int) bool { return rows*(cols+1) <= size }

// denseRows returns how many of rows the next block after a batch's
// first takes, sizing them without encoding them: all AppendBlock would
// take when they make a dense block, else the longest power-of-two
// prefix below the first power-of-two prefix that is not dense.
func denseRows(rows []types.Tuple) int {
	var s types.BlockSizer
	n, m := 0, 0
	for m < len(rows) && s.Add(rows[m]) {
		if m++; m&(m-1) == 0 {
			if !dense(m, len(rows[0]), s.Size()) {
				return n
			}
			n = m
		}
	}
	if dense(m, len(rows[0]), s.Size()) {
		return m
	}
	return n
}

// DecodeBatch decodes a batch produced by EncodeBatch.
func DecodeBatch(data []byte) ([]types.Tuple, error) {
	return DecodeBatchInto(nil, data)
}

// DecodeBatchInto decodes a batch appending to dst, so a steady-state
// consumer can recycle one row-header slice across fetches. The rows
// are fresh memory (see DecodeBatchArena).
func DecodeBatchInto(dst []types.Tuple, data []byte) ([]types.Tuple, error) {
	return DecodeBatchArena(dst, nil, data)
}

// DecodeBatchArena decodes a batch appending to dst, its rows made in
// a (nil: fresh memory), so a consumer that resets a between batches
// decodes without allocating. Each block is decoded in one validating
// pass (types.DecodeBlock): the rows do not alias data. A block after
// the first is measured before it is decoded and refused unless dense.
func DecodeBatchArena(dst []types.Tuple, a *types.Arena, data []byte) ([]types.Tuple, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: bad batch header")
	}
	start := len(dst)
	for pos := 0; pos < len(data); {
		var (
			used int
			err  error
		)
		if pos > 0 {
			rows, cols, n, lerr := types.BlockLen(data[pos:])
			if err = lerr; err == nil && !dense(rows, cols, n) {
				err = fmt.Errorf("%d rows of %d columns in %d bytes", rows, cols, n)
			}
		}
		if err == nil {
			dst, used, err = types.DecodeBlock(dst, a, data[pos:], nil, 0, -1)
		}
		if err != nil {
			return nil, fmt.Errorf("wire: block at row %d: %w", len(dst)-start, err)
		}
		pos += used
	}
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
