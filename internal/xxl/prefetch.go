package xxl

import (
	"fmt"
	"sync"

	"tango/internal/rel"
	"tango/internal/types"
)

// Prefetch double-buffers an iterator behind a background worker: the
// worker pulls whole batches from the wrapped iterator one step ahead
// of the consumer, so the producer's latency (for TRANSFER^M, the wire
// round trip and transmit time of the next fetch batch) overlaps with
// the middleware compute consuming the current batch. Order is
// trivially preserved — batches flow through a single channel in
// production order.
//
// Handing a batch across goroutines needs no copy: produced tuples are
// immutable and stay valid while referenced (rel.Iterator).
type Prefetch struct {
	in rel.Input
	// OnStats, when set, receives {batches, rows} pulled when the
	// stream completes or closes.
	OnStats func(ParallelStats)

	// Held across the wrapped iterator's Open/Close and the worker
	// join: an ordered lifecycle lock, not a latch.
	mu     sync.Mutex //tango:lock-order prefetch
	opened bool       // worker running

	ch   chan prefBatch
	free chan []types.Tuple
	stop chan struct{}
	done chan struct{}

	curBuf []types.Tuple // full-capacity buffer on loan from free
	cur    rel.Cursor    // serves the valid view of curBuf
	err    error
	eos    bool

	batches int64
	rows    int64
}

type prefBatch struct {
	rows []types.Tuple // view into a free-list buffer
	err  error
}

// NewPrefetch wraps an iterator with background batch prefetching.
func NewPrefetch(in rel.Iterator) *Prefetch { return &Prefetch{in: rel.In(in)} }

// Unwrap returns the wrapped iterator, so plan rewrites that
// type-assert on concrete operators can see through the prefetcher.
func (p *Prefetch) Unwrap() rel.Iterator { return p.in.Iterator() }

// Schema returns the wrapped iterator's schema.
func (p *Prefetch) Schema() types.Schema { return p.in.Schema() }

// Open opens the wrapped iterator synchronously (so dependency loads
// and planning errors surface here), then starts the prefetch worker.
func (p *Prefetch) Open() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opened {
		return fmt.Errorf("xxl: prefetch already open")
	}
	if err := p.in.Open(); err != nil {
		return err
	}
	p.ch = make(chan prefBatch, 1)
	p.free = make(chan []types.Tuple, 2)
	p.free <- make([]types.Tuple, rel.DefaultBatchSize)
	p.free <- make([]types.Tuple, rel.DefaultBatchSize)
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	p.curBuf = nil
	p.cur.Reset(nil)
	p.err, p.eos = nil, false
	p.batches, p.rows = 0, 0
	p.opened = true
	go p.worker()
	return nil
}

// worker pulls batches ahead of the consumer until EOS, error, or
// stop. The final (possibly empty) batch carries the error/EOS signal.
func (p *Prefetch) worker() {
	defer close(p.done)
	for {
		var buf []types.Tuple
		select {
		case <-p.stop:
			return
		case buf = <-p.free:
		}
		n, err := p.in.NextBatch(buf)
		select {
		case <-p.stop:
			return
		case p.ch <- prefBatch{rows: buf[:n], err: err}:
		}
		if err != nil || n == 0 {
			return
		}
	}
}

// advance installs the next prefetched batch as current. It returns
// false at end of stream (p.err may be set).
func (p *Prefetch) advance() bool {
	if p.eos || p.err != nil {
		return false
	}
	if p.curBuf != nil {
		// Hand the spent buffer back to the worker. Never blocks: at
		// most two buffers exist and this one is off the free list.
		p.free <- p.curBuf[:cap(p.curBuf)]
		p.curBuf = nil
	}
	b := <-p.ch
	if b.err != nil {
		p.err = b.err
		return false
	}
	if len(b.rows) == 0 {
		p.eos = true
		return false
	}
	p.cur.Reset(b.rows)
	p.curBuf = b.rows
	p.batches++
	p.rows += int64(len(b.rows))
	return true
}

// NextBatch hands over (up to) one whole prefetched batch.
func (p *Prefetch) NextBatch(dst []types.Tuple) (int, error) {
	if !p.opened {
		return 0, errNotOpened("prefetch")
	}
	for {
		if n := p.cur.Read(dst); n > 0 {
			return n, nil
		}
		if !p.advance() {
			return 0, p.err
		}
	}
}

// Close stops the worker, waits for it to exit, and closes the
// wrapped iterator (so transfer feedback and temp-table cleanup run
// exactly as without prefetching) — also when Open failed or was never
// called: a transfer whose dependency load failed still has a temp
// table to drop. Idempotent.
func (p *Prefetch) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opened {
		p.opened = false
		close(p.stop)
		<-p.done
		p.curBuf = nil
		p.cur.Reset(nil)
		if p.OnStats != nil {
			p.OnStats(ParallelStats{
				Op: "Prefetch", Workers: 1,
				Partitions: int(p.batches), Rows: p.rows,
			})
		}
	}
	return p.in.Close()
}
