package xxl

// Parallel execution support: the one worker pool every parallel
// operator in this package runs on (the partitioned operator's kernels,
// SORT^M's run generation and in-memory chunk sort), and the
// ParallelStats shape report that operators hand to the executor
// through their OnStats callbacks (so this package stays free of
// telemetry dependencies).
//
// Every parallel path preserves the sequential operator's output order
// exactly — the optimizer relies on list equivalence for
// middleware-resident plan parts, so "same tuples, same order" is a
// hard contract, not best effort. The pool hands results back in
// submission order; what callers submit in input order therefore comes
// back in input order, whichever worker finishes first.

// ParallelStats describes the parallel shape of one operator
// execution: how many workers ran, how many partitions (sort runs /
// chunks, aggregation group ranges, join key ranges) they processed,
// and the partition size spread for skew monitoring.
type ParallelStats struct {
	// Op is the operator label, e.g. "Sort^M" or "TAggr^M".
	Op string
	// Workers is the number of concurrent workers used (1 = sequential).
	Workers int
	// Partitions is the number of independent work units.
	Partitions int
	// Rows is the total rows across all partitions.
	Rows int64
	// MaxPart and MinPart are the largest and smallest partition sizes
	// in rows.
	MaxPart int
	MinPart int
}

// observe folds one partition of n rows into the stats.
func (p *ParallelStats) observe(n int) {
	p.Partitions++
	p.Rows += int64(n)
	if n > p.MaxPart {
		p.MaxPart = n
	}
	if p.Partitions == 1 || n < p.MinPart {
		p.MinPart = n
	}
}

// finish sets Workers for a run with a worker bound of par and
// labels the stats op.
func (p ParallelStats) finish(op string, par int) ParallelStats {
	p.Op = op
	p.Workers = max(1, min(par, p.Partitions))
	return p
}

// Skew is the largest partition relative to the mean partition size;
// 1 means perfectly balanced, higher means one partition dominates.
func (p ParallelStats) Skew() float64 {
	if p.Partitions == 0 || p.Rows == 0 {
		return 1
	}
	return float64(p.MaxPart) / (float64(p.Rows) / float64(p.Partitions))
}

// pool runs tasks on at most n goroutines and hands their results back
// in submission order. A task holds its slot from submit until its
// result is taken, so at most n results are ever running or waiting —
// the bound on memory as well as on workers. One goroutine submits and
// takes; with n <= 1 each task runs inline in submit.
type pool[T any] struct {
	n       int
	pending []*future[T] // submitted, not yet taken, in submission order
}

type future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newPool[T any](n int) *pool[T] { return &pool[T]{n: max(n, 1)} }

// full reports whether every slot is taken; submit must wait for a
// take first.
func (p *pool[T]) full() bool { return len(p.pending) >= p.n }

// submit starts fn in a free slot.
func (p *pool[T]) submit(fn func() (T, error)) {
	f := &future[T]{done: make(chan struct{})}
	p.pending = append(p.pending, f)
	if p.n == 1 {
		f.val, f.err = fn()
		close(f.done)
		return
	}
	go func() {
		defer close(f.done)
		f.val, f.err = fn()
	}()
}

// take waits for the oldest result not yet taken; ok is false when
// none is pending.
func (p *pool[T]) take() (val T, ok bool, err error) {
	if len(p.pending) == 0 {
		return val, false, nil
	}
	f := p.pending[0]
	p.pending = p.pending[1:]
	<-f.done
	return f.val, true, f.err
}

// drain waits for every pending task and drops its result.
func (p *pool[T]) drain() {
	for _, f := range p.pending {
		<-f.done
	}
	p.pending = nil
}
