package xxl

import (
	"sort"

	"tango/internal/rel"
	"tango/internal/types"
)

// minPartitionRows is the smallest chunk worth a kernel of its own;
// below it worker overhead dominates.
const minPartitionRows = 1024

// Partitioned is the partitioned form of TAGGR^M, JOIN^M and TJOIN^M.
// Their sequential algorithms consume inputs sorted on the grouping or
// join attributes and never relate tuples across distinct key values.
// So the operator reads its (left) input, validates its order, and —
// once at least minPartitionRows rows are pending — cuts them at a key
// boundary and submits the chunk to the worker pool, which runs the
// unchanged sequential algorithm (the kernel) on it. A join's kernel
// joins the chunk with the right rows in the chunk's key interval; the
// right input is drained and validated in Open. Chunk outputs are
// served in submission order. Key groups are never split and every
// kernel is order preserving, so the output is tuple-for-tuple the
// sequential operator's: the list equivalence the optimizer's
// middleware plans rely on holds by construction.
//
// The input is read on the caller's goroutine, whenever a pool slot is
// free, while earlier chunks compute on the workers: the kernels fan
// out across cores and overlap the input's latency, and an input's
// measured time stays inside this operator's, as for the sequential
// operator. The middleware executor builds the sequential operators
// only; the benchmark module's per-layer replay builds this form.
type Partitioned struct {
	left  rel.Input
	right *rel.Input // nil for TAGGR^M
	keys  []int      // left key columns; a cut never separates equal values
	order []int      // the left order the kernel requires
	rkeys []int

	ls, rs   types.Schema
	schema   types.Schema
	op       string
	unsorted func(prev, cur types.Tuple) error // the kernel's left-order error
	kernel   func(left, right rel.Iterator) rel.Iterator

	// Parallelism bounds the concurrent kernels; at 1 each kernel runs
	// inline.
	Parallelism int

	opened    bool
	rightRows []types.Tuple
	rightMem  types.Arena // rightRows' copies
	chunks    *pool[[]types.Tuple]
	buf       []types.Tuple // one left input batch
	pending   []types.Tuple // copies of left rows read but not yet submitted
	mem       types.Arena   // where they are copied; a submitted chunk keeps its own
	prev      types.Tuple   // order validation
	inDone    bool

	cur rel.Cursor // the current chunk's output
	err error
}

// NewPTAggr is the partitioned NewTAggr.
func NewPTAggr(in rel.Iterator, groupBy []int, t1, t2 int, aggs []AggSpec, out types.Schema, parallelism int) *Partitioned {
	return &Partitioned{
		left: rel.In(in), keys: groupBy, order: append(append([]int{}, groupBy...), t1),
		ls: in.Schema(), schema: out, op: "TAggr^M", unsorted: errTAggrUnsorted,
		kernel: func(chunk, _ rel.Iterator) rel.Iterator {
			return NewTAggr(chunk, groupBy, t1, t2, aggs, out)
		},
		Parallelism: parallelism,
	}
}

// NewPMergeJoin is the partitioned NewMergeJoin.
func NewPMergeJoin(left, right rel.Iterator, lkeys, rkeys []int, parallelism int) *Partitioned {
	return newPJoin(left, right, lkeys, rkeys, "Join^M", left.Schema().Concat(right.Schema()), parallelism,
		func(l, r rel.Iterator) rel.Iterator { return NewMergeJoin(l, r, lkeys, rkeys) })
}

// NewPTJoin is the partitioned NewTJoin.
func NewPTJoin(left, right rel.Iterator, lkeys, rkeys []int, lt1, lt2, rt1, rt2 int, parallelism int) *Partitioned {
	return newPJoin(left, right, lkeys, rkeys, "TJoin^M", tjoinSchema(left.Schema(), right.Schema(), rt1, rt2), parallelism,
		func(l, r rel.Iterator) rel.Iterator { return NewTJoin(l, r, lkeys, rkeys, lt1, lt2, rt1, rt2) })
}

func newPJoin(left, right rel.Iterator, lkeys, rkeys []int, op string, schema types.Schema, par int, kernel func(l, r rel.Iterator) rel.Iterator) *Partitioned {
	r := rel.In(right)
	return &Partitioned{
		left: rel.In(left), right: &r, keys: lkeys, order: lkeys, rkeys: rkeys,
		ls: left.Schema(), rs: right.Schema(), schema: schema, op: op,
		unsorted: func(_, _ types.Tuple) error { return errJoinUnsorted("left") },
		kernel:   kernel, Parallelism: par,
	}
}

// Schema returns the output schema.
func (p *Partitioned) Schema() types.Schema { return p.schema }

// Open opens the left input and drains and validates a join's right
// input.
func (p *Partitioned) Open() error {
	if err := p.left.Open(); err != nil {
		return err
	}
	p.rightMem = types.Arena{}
	if p.right != nil {
		var last types.Tuple
		if err := rel.Each(p.right, func(t types.Tuple) error {
			if last != nil && types.CompareTuples(last, t, p.rkeys, nil) > 0 {
				return errJoinUnsorted("right")
			}
			last = p.rightMem.Keep(t)
			return nil
		}); err != nil {
			return err
		}
	}
	p.rightRows = p.rightMem.Rows()
	p.chunks = newPool[[]types.Tuple](p.Parallelism)
	p.buf = make([]types.Tuple, rel.DefaultBatchSize)
	p.pending, p.prev, p.inDone = nil, nil, false
	p.cur.Reset(nil)
	p.err = nil
	p.opened = true
	return nil
}

// NextBatch serves the chunk outputs in submission (= key) order,
// reading more input into free pool slots before it waits for the
// next one.
func (p *Partitioned) NextBatch(dst []types.Tuple) (int, error) {
	if !p.opened {
		return 0, errNotOpened(p.op)
	}
	for {
		if n := p.cur.Read(dst); n > 0 || p.err != nil {
			return n, p.err
		}
		for !p.inDone && !p.chunks.full() {
			if err := p.read(); err != nil {
				// Surfaces after every chunk submitted before it.
				p.inDone = true
				p.chunks.submit(func() ([]types.Tuple, error) { return nil, err })
			}
		}
		rows, ok, err := p.chunks.take()
		if !ok {
			return 0, nil
		}
		p.cur.Reset(rows)
		p.err = err
	}
}

// read pulls one left batch and validates its order. Once
// minPartitionRows rows are pending it submits them up to the start of
// the trailing (possibly still open) key group — one giant group keeps
// accumulating — and at the end of the input it submits the rest.
func (p *Partitioned) read() error {
	n, err := p.left.NextBatch(p.buf)
	if err != nil {
		return err
	}
	if n == 0 {
		p.inDone = true
		if len(p.pending) > 0 {
			p.submit(p.pending)
			p.pending = nil
		}
		return nil
	}
	for _, t := range p.buf[:n] {
		if p.prev != nil && types.CompareTuples(p.prev, t, p.order, nil) > 0 {
			return p.unsorted(p.prev, t)
		}
		p.prev = p.mem.Copy(t)
		p.pending = append(p.pending, p.prev)
	}
	if len(p.pending) < minPartitionRows {
		return nil
	}
	i := len(p.pending) - 1
	for i > 0 && types.CompareTuples(p.pending[i-1], p.pending[i], p.keys, nil) == 0 {
		i--
	}
	if i > 0 {
		p.submit(p.pending[:i:i])
		p.pending = append(make([]types.Tuple, 0, minPartitionRows+len(p.pending)-i), p.pending[i:]...)
	}
	return nil
}

// submit hands one chunk to the pool. The rows copied so far are the
// chunk's and the pending rows', so the next are copied into a new
// arena.
func (p *Partitioned) submit(chunk []types.Tuple) {
	p.mem = types.Arena{}
	p.chunks.submit(func() ([]types.Tuple, error) { return p.run(chunk) })
}

// run computes one chunk's output with the kernel.
func (p *Partitioned) run(chunk []types.Tuple) ([]types.Tuple, error) {
	var right rel.Iterator
	if p.right != nil {
		lo, hi := rightRange(p.rightRows, p.rkeys, chunk, p.keys)
		right = (&rel.Relation{Schema: p.rs, Tuples: p.rightRows[lo:hi]}).Iter()
	}
	out, err := rel.Drain(p.kernel((&rel.Relation{Schema: p.ls, Tuples: chunk}).Iter(), right))
	if err != nil {
		return nil, err
	}
	return out.Tuples, nil
}

// rightRange returns the half-open index range of right rows whose
// join key falls inside the left chunk's [first, last] key interval.
// Both sides are sorted on their keys, so two binary searches suffice.
func rightRange(right []types.Tuple, rkeys []int, chunk []types.Tuple, lkeys []int) (int, int) {
	first, last := chunk[0], chunk[len(chunk)-1]
	lo := sort.Search(len(right), func(i int) bool {
		return compareOn(right[i], rkeys, first, lkeys) >= 0
	})
	hi := sort.Search(len(right), func(i int) bool {
		return compareOn(right[i], rkeys, last, lkeys) > 0
	})
	return lo, hi
}

// Close waits for the running kernels and closes the inputs.
// Idempotent.
func (p *Partitioned) Close() error {
	if p.opened {
		p.opened = false
		p.chunks.drain()
	}
	p.cur.Reset(nil)
	p.buf, p.pending, p.prev, p.rightRows = nil, nil, nil, nil
	p.mem.Free() // every kernel has finished
	p.rightMem.Free()
	err := p.left.Close()
	if p.right != nil {
		if rerr := p.right.Close(); err == nil {
			err = rerr
		}
	}
	return err
}
