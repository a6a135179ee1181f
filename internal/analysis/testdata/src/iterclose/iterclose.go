// Package iterclose seeds lifecycle violations for the iterclose
// analyzer: iterators opened but never closed, closes reachable only
// past early returns, and Next calls on exhausted iterators.
package iterclose

type tuple []int

// iter is shaped like rel.Reader, the row-at-a-time consumer cursor,
// which the analyzer matches structurally.
type iter struct{ done bool }

func (*iter) Open() error                { return nil }
func (*iter) Close() error               { return nil }
func (*iter) Next() (tuple, bool, error) { return nil, false, nil }

// conn has the cursor-opening method the analyzer treats as an
// acquisition.
type conn struct{}

func (*conn) Query(sql string) (*iter, error) { return &iter{}, nil }

func badPrecondition() bool { return false }

// neverClosed acquires a cursor and drops it on the floor.
func neverClosed(c *conn) error {
	rows, err := c.Query("SELECT 1") // want `rows is opened but never closed`
	if err != nil {
		return err
	}
	_, _, nerr := rows.Next()
	return nerr
}

// leakOnError closes only on the success path; the precondition return
// leaks the open iterator.
func leakOnError(c *conn) error {
	it := &iter{}
	if err := it.Open(); err != nil {
		return err
	}
	if badPrecondition() {
		return nil // want `return leaks it: opened at line \d+`
	}
	return it.Close()
}

// drainLeaksOnError drains a cursor by hand and closes it only after
// the loop, so a pull error returns with the cursor still open — the
// mutant only iterclose catches (DESIGN.md §4c).
func drainLeaksOnError(c *conn) ([]tuple, error) {
	rows, err := c.Query("SELECT 6")
	if err != nil {
		return nil, err
	}
	rows.done = false // a field write is a use, not a hand-off
	var out []tuple
	for {
		t, ok, err := rows.Next()
		if err != nil {
			return nil, err // want `return leaks rows: opened at line \d+`
		}
		if !ok {
			break
		}
		out = append(out, t)
	}
	return out, rows.Close()
}

// holder owns a cursor once it is stored in one.
type holder struct{ rows *iter }

func (*conn) reset() {}

// openFailLeaks hands the cursor to an owner only after its Open
// succeeded, so the failed Open's return leaks it: an escape releases
// the value only where it happens — the mutant only iterclose catches
// (DESIGN.md §4c).
func openFailLeaks(c *conn, release func()) (*holder, error) {
	rows, err := c.Query("SELECT 7")
	if err == nil {
		err = rows.Open()
	}
	if err != nil {
		c.reset()
		release()
		return nil, err // want `return leaks rows: opened at line \d+, handed away only at line \d+`
	}
	return &holder{rows: rows}, nil
}

// openFailCloses is the sanctioned shape: the failed Open's branch
// closes the cursor before the shared error return.
func openFailCloses(c *conn, release func()) (*holder, error) {
	rows, err := c.Query("SELECT 8")
	if err == nil {
		if err = rows.Open(); err != nil {
			_ = rows.Close()
		}
	}
	if err != nil {
		c.reset()
		release()
		return nil, err
	}
	return &holder{rows: rows}, nil
}

// nextAfterExhaustion calls Next again after the consuming loop
// without re-opening.
func nextAfterExhaustion(c *conn) error {
	rows, err := c.Query("SELECT 2")
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		_, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	_, _, err = rows.Next() // want `rows\.Next\(\) after the consuming loop at line \d+`
	return err
}

// drained is the sanctioned shape: defer the close right after the
// acquisition's error check, keep the final close's error.
func drained(c *conn) (int, error) {
	rows, err := c.Query("SELECT 3")
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for {
		_, ok, err := rows.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		n++
	}
	return n, rows.Close()
}

// opened hands ownership to the caller; no finding.
func opened(c *conn) (*iter, error) {
	rows, err := c.Query("SELECT 4")
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// suppressed leaks on purpose; the directive keeps the finding quiet
// and the harness verifies no diagnostic surfaces here.
func suppressed(c *conn) error {
	//lint:ignore iterclose fixture: the leak is the point of this test
	rows, err := c.Query("SELECT 5")
	if err != nil {
		return err
	}
	_, _, nerr := rows.Next()
	return nerr
}

// batchIter is shaped like rel.Iterator: Open, Close and NextBatch
// alone. The analyzer treats NextBatch as a consuming use exactly like
// a Reader's Next.
type batchIter struct{ done bool }

func (*batchIter) Open() error                        { return nil }
func (*batchIter) Close() error                       { return nil }
func (*batchIter) NextBatch(dst []tuple) (int, error) { return 0, nil }

// batchNeverClosed opens a NextBatch-only iterator and never closes
// it; NextBatch must not read as an ownership escape.
func batchNeverClosed() error {
	it := &batchIter{}
	if err := it.Open(); err != nil { // want `it is opened but never closed`
		return err
	}
	buf := make([]tuple, 8)
	_, err := it.NextBatch(buf)
	return err
}

// batchNextAfterExhaustion drains with NextBatch, then asks for more
// without re-opening.
func batchNextAfterExhaustion() error {
	it := &batchIter{}
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	buf := make([]tuple, 8)
	for {
		n, err := it.NextBatch(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	_, err := it.NextBatch(buf) // want `it\.NextBatch\(\) after the consuming loop at line \d+`
	return err
}

// batchDrained is the sanctioned batch-protocol shape: deferred close,
// NextBatch loop to n == 0.
func batchDrained() (int, error) {
	it := &batchIter{}
	if err := it.Open(); err != nil {
		return 0, err
	}
	defer it.Close()
	buf := make([]tuple, 8)
	total := 0
	for {
		n, err := it.NextBatch(buf)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			break
		}
		total += n
	}
	return total, it.Close()
}

// prefetcher is a parallel wrapper fixture: it owns a wrapped iterator
// in a field (exempt — closed by the wrapper's own Close), and exposes
// Unwrap like the real instrumentation wrapper. Unwrap is a neutral use.
type prefetcher struct{ in *batchIter }

func (p *prefetcher) Open() error                        { return p.in.Open() }
func (p *prefetcher) Close() error                       { return p.in.Close() }
func (p *prefetcher) NextBatch(dst []tuple) (int, error) { return p.in.NextBatch(dst) }
func (p *prefetcher) Unwrap() *batchIter                 { return p.in }

// wrappedDrain opens a prefetch wrapper and closes only the wrapper;
// peeking through Unwrap must not demand a second close.
func wrappedDrain() error {
	p := &prefetcher{in: &batchIter{}}
	if err := p.Open(); err != nil {
		return err
	}
	defer p.Close()
	_ = p.Unwrap()
	buf := make([]tuple, 8)
	for {
		n, err := p.NextBatch(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	return nil
}
