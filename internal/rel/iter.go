package rel

import "tango/internal/types"

// DefaultBatchSize is the tuple count of one execution batch. It
// equals wire.DefaultPrefetch, the size of a cursor's first fetch only:
// later fetches grow toward 64 KiB, so a TRANSFER^M hands one fetch
// over in several batches of this size.
const DefaultBatchSize = 256

// Cursor serves a materialized tuple slice a batch at a time: the read
// side of every operator that holds its output in memory (a sort, a
// hash aggregate, a temporal aggregate's groups, a decoded page). The
// zero value is an empty cursor.
type Cursor struct {
	rows []types.Tuple
	pos  int
}

// Reset points the cursor at the start of rows (nil releases them).
func (c *Cursor) Reset(rows []types.Tuple) { c.rows, c.pos = rows, 0 }

// Read copies the next tuple headers into dst and returns how many; 0
// at the end.
func (c *Cursor) Read(dst []types.Tuple) int {
	n := copy(dst, c.rows[c.pos:])
	c.pos += n
	return n
}

// Input is an operator's handle on one of its inputs: it forwards the
// Iterator methods and makes Close reach the input once per Open, however
// many of the operator's paths (a drain that closed the input inside
// Open, a failed Open, a second Close) call it. *Input is an Iterator.
type Input struct {
	it     Iterator
	closed bool
}

// In returns a handle on it.
func In(it Iterator) Input { return Input{it: it} }

// Iterator returns the input itself, for code that sees through
// wrappers (index-scan rewrites).
func (in *Input) Iterator() Iterator { return in.it }

// Schema returns the input's schema.
func (in *Input) Schema() types.Schema { return in.it.Schema() }

// Open opens the input.
func (in *Input) Open() error { in.closed = false; return in.it.Open() }

// NextBatch pulls from the input.
func (in *Input) NextBatch(dst []types.Tuple) (int, error) { return in.it.NextBatch(dst) }

// Close closes the input unless it was closed since the last Open.
func (in *Input) Close() error {
	if in.closed {
		return nil
	}
	in.closed = true
	return in.it.Close()
}

// Reader is the consumer side for code that really takes one row at a
// time — a merge join advancing one side, a coalescing pass: it
// buffers one batch of its input and hands it out row by row. A row
// Next returns stays valid until the Next after the one that follows
// it, so a consumer can always compare the row with the one before: the
// last row of each batch, which the pull for the next batch may
// overwrite, is handed out as a copy. Its Close follows Input's
// once-per-Open rule.
type Reader struct {
	in     Input
	buf    []types.Tuple
	pos, n int
	last   [2]types.Arena // the copies of the last two batches' last rows
	flip   int
}

// NewReader reads it one row at a time.
func NewReader(it Iterator) *Reader { return &Reader{in: In(it)} }

// Schema returns the input's schema.
func (r *Reader) Schema() types.Schema { return r.in.Schema() }

// Open opens the input.
func (r *Reader) Open() error { r.pos, r.n = 0, 0; return r.in.Open() }

// Next returns the next row, or false at end of stream.
func (r *Reader) Next() (types.Tuple, bool, error) {
	if r.pos == r.n {
		if r.buf == nil {
			r.buf = make([]types.Tuple, DefaultBatchSize)
		}
		n, err := r.in.NextBatch(r.buf)
		if err != nil || n == 0 {
			return nil, false, err
		}
		r.pos, r.n = 0, n
	}
	r.pos++
	t := r.buf[r.pos-1]
	if r.pos == r.n {
		r.flip ^= 1
		r.last[r.flip].Reset()
		t = r.last[r.flip].Copy(t)
	}
	return t, true, nil
}

// Close closes the input.
func (r *Reader) Close() error {
	r.last[0].Free()
	r.last[1].Free()
	return r.in.Close()
}

// Each opens it, calls fn on every row it produces, and closes it — on
// every path, a failed Open included. The first error wins.
func Each(it Iterator, fn func(types.Tuple) error) (err error) {
	defer func() {
		if cerr := it.Close(); err == nil {
			err = cerr
		}
	}()
	if err := it.Open(); err != nil {
		return err
	}
	dst := make([]types.Tuple, DefaultBatchSize)
	for {
		n, err := it.NextBatch(dst)
		if err != nil || n == 0 {
			return err
		}
		for _, t := range dst[:n] {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
}

// Fill is the NextBatch of an operator whose algorithm yields one row
// at a time (a join emitting pairs, a coalescing sweep): it fills dst
// from next until dst is full or next reports the end.
func Fill(dst []types.Tuple, next func() (types.Tuple, bool, error)) (int, error) {
	for n := range dst {
		t, ok, err := next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return n, nil
		}
		dst[n] = t
	}
	return len(dst), nil
}

// Select is the NextBatch of an operator that passes on some of its
// input rows unchanged (a filter, duplicate elimination): it pulls
// input batches straight into dst and compacts the rows keep accepts in
// place. A batch rejected entirely is followed by the next one, so 0
// still means end of stream.
func Select(in Iterator, dst []types.Tuple, keep func(types.Tuple) (bool, error)) (int, error) {
	for {
		n, err := in.NextBatch(dst)
		if err != nil || n == 0 {
			return 0, err
		}
		out := 0
		for _, t := range dst[:n] {
			ok, err := keep(t)
			if err != nil {
				return 0, err
			}
			if ok {
				dst[out] = t
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
	}
}
