package xxl

// Parallel execution support: the one worker pool the partitioned
// operators' kernels and SORT^M's parallel run generation and
// in-memory chunk sort run on. The middleware executor builds only the
// sequential operators; these forms remain for callers that replay a
// plan at a chosen fan-out.
//
// Every parallel path preserves the sequential operator's output order
// exactly — the optimizer relies on list equivalence for
// middleware-resident plan parts, so "same tuples, same order" is a
// hard contract, not best effort. The pool hands results back in
// submission order; what callers submit in input order therefore comes
// back in input order, whichever worker finishes first.

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
