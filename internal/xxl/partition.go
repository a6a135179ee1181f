package xxl

// Partitioned variants of the order-sensitive middleware algorithms:
// PTAggr (TAGGR^M) and PJoin (JOIN^M / TJOIN^M). Both exploit the
// same observation: their sequential algorithms consume inputs sorted
// on the grouping/join attributes and never relate tuples across
// distinct key values, so a sorted input can be cut at key boundaries
// into contiguous partitions, each partition computed with the
// unchanged sequential algorithm on its own worker, and the partition
// outputs concatenated in partition order. Because partitions are
// contiguous ranges of the (sorted) input and each sequential
// algorithm is order preserving, the concatenation is tuple-for-tuple
// identical to the sequential result — list equivalence, which the
// optimizer's middleware plan contracts require, is preserved by
// construction.

import (
	"sort"
	"sync"

	"tango/internal/rel"
	"tango/internal/types"
)

// minPartitionRows is the smallest materialized input worth
// partitioning; below it worker overhead dominates.
const minPartitionRows = 1024

// drainSorted materializes an input (opening and closing it on every
// path) and validates that consecutive tuples are ordered on keys; a
// violation is the merge join's unsorted-input error for side.
func drainSorted(in rel.Iterator, keys []int, side string) ([]types.Tuple, error) {
	var rows []types.Tuple
	err := rel.Each(in, func(t types.Tuple) error {
		if len(rows) > 0 && types.CompareTuples(rows[len(rows)-1], t, keys, nil) > 0 {
			return errJoinUnsorted(side)
		}
		rows = append(rows, t)
		return nil
	})
	return rows, err
}

// splitAtKeyBoundaries cuts rows (sorted on keys) into at most
// maxParts contiguous partitions, never separating tuples that share a
// key value. Partition order is input order.
func splitAtKeyBoundaries(rows []types.Tuple, keys []int, maxParts int) [][]types.Tuple {
	if maxParts <= 1 || len(rows) < minPartitionRows {
		if len(rows) == 0 {
			return nil
		}
		return [][]types.Tuple{rows}
	}
	target := (len(rows) + maxParts - 1) / maxParts
	var parts [][]types.Tuple
	start := 0
	for start < len(rows) {
		cut := start + target
		if cut >= len(rows) {
			parts = append(parts, rows[start:])
			break
		}
		// Advance the cut to the next key boundary so no key group is
		// split across partitions.
		for cut < len(rows) &&
			types.CompareTuples(rows[cut-1], rows[cut], keys, nil) == 0 {
			cut++
		}
		if cut >= len(rows) {
			parts = append(parts, rows[start:])
			break
		}
		parts = append(parts, rows[start:cut])
		start = cut
	}
	return parts
}

// runPartitions evaluates fn for every partition index on at most par
// concurrent workers and returns the per-partition outputs in
// partition order. The first error wins; all workers are always
// joined.
func runPartitions(par, n int, fn func(i int) ([]types.Tuple, error)) ([][]types.Tuple, error) {
	outs := make([][]types.Tuple, n)
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			out, err := fn(i)
			if err != nil {
				return nil, err
			}
			outs[i] = out
		}
		return outs, nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, par)
	for i := 0; i < n; i++ {
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out, err := fn(i)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// partResult is one partition's computed output (or the stream error,
// delivered in partition order after all preceding partitions).
type partResult struct {
	rows []types.Tuple
	err  error
}

// PTAggr is the partitioned, pipelined TAGGR^M: a dispatcher goroutine
// reads the sorted input, cuts it at grouping-attribute boundaries
// into chunks of at least minPartitionRows, and hands each chunk to a
// bounded worker pool running the unchanged sequential TAggr; the
// consumer serves the partition outputs strictly in dispatch (= key)
// order, so the result is tuple-for-tuple the sequential operator's
// output. Because partitions are aggregated while the dispatcher is
// still draining the input, the aggregation compute overlaps the
// producer's latency (for a transfer-fed plan, the wire round trips of
// later fetch batches) in addition to fanning out across cores.
// Unlike the streaming TAggr (one group resident at a time) it holds a
// bounded window of partitions in memory; the executor only selects it
// when Parallelism > 1.
type PTAggr struct {
	in      rel.Input
	groupBy []int
	t1, t2  int
	aggs    []AggSpec
	schema  types.Schema

	// Parallelism bounds the concurrent partition workers.
	Parallelism int
	// OnStats, when set, receives the partition shape when the operator
	// closes.
	OnStats func(ParallelStats)

	opened   bool // dispatcher running; it closes the input on its way out
	inSchema types.Schema
	parts    chan chan partResult
	stop     chan struct{}
	done     chan struct{}
	closeErr error         // input Close error (EOS path), surfaced at Close
	stats    ParallelStats // written by the dispatcher, read after done

	cur rel.Cursor // the current partition's output
	err error
	eos bool
}

// NewPTAggr mirrors NewTAggr with a worker bound.
func NewPTAggr(in rel.Iterator, groupBy []int, t1, t2 int, aggs []AggSpec, out types.Schema, parallelism int) *PTAggr {
	return &PTAggr{in: rel.In(in), groupBy: groupBy, t1: t1, t2: t2, aggs: aggs, schema: out, Parallelism: parallelism}
}

// Schema returns the output schema.
func (a *PTAggr) Schema() types.Schema { return a.schema }

// Open opens the input synchronously (planning errors surface here)
// and starts the partition dispatcher.
func (a *PTAggr) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	par := a.Parallelism
	if par < 1 {
		par = 1
	}
	a.inSchema = a.in.Schema()
	a.parts = make(chan chan partResult, par)
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	a.closeErr = nil
	a.stats = ParallelStats{Op: "TAggr^M"}
	a.cur.Reset(nil)
	a.err, a.eos = nil, false
	a.opened = true
	go a.dispatch(par)
	return nil
}

// dispatch reads the sorted input, validates its order, cuts it at
// group boundaries, and fans the chunks out to at most par workers.
// It owns the input: the wrapped iterator is closed here on every exit
// path, so transfer feedback and temp-table cleanup run exactly as in
// the sequential operator.
func (a *PTAggr) dispatch(par int) {
	defer close(a.done)
	defer close(a.parts)

	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	defer wg.Wait()

	// emit hands one chunk to a worker; false means stop was closed.
	emit := func(rows []types.Tuple) bool {
		res := make(chan partResult, 1) // buffered: workers never block
		select {
		case <-a.stop:
			return false
		case a.parts <- res:
		}
		a.stats.observe(len(rows))
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			it := (&rel.Relation{Schema: a.inSchema, Tuples: rows}).Iter()
			out, err := rel.Drain(NewTAggr(it, a.groupBy, a.t1, a.t2, a.aggs, a.schema))
			if err != nil {
				res <- partResult{err: err}
				return
			}
			res <- partResult{rows: out.Tuples}
		}()
		return true
	}
	// fail delivers the stream error in partition order.
	fail := func(err error) {
		res := make(chan partResult, 1)
		res <- partResult{err: err}
		select {
		case <-a.stop:
		case a.parts <- res:
		}
	}
	finish := func(readErr error) {
		a.stats.Workers = min2(par, a.stats.Partitions)
		cerr := a.in.Close()
		if readErr == nil {
			a.closeErr = cerr
		}
	}

	sortKey := append(append([]int{}, a.groupBy...), a.t1)
	var pending []types.Tuple
	var prev types.Tuple
	take := func(t types.Tuple) error {
		// Same contract and message as the sequential TAggr (§3.4).
		if prev != nil && types.CompareTuples(prev, t, sortKey, nil) > 0 {
			return errTAggrUnsorted(prev, t)
		}
		prev = t
		pending = append(pending, t)
		return nil
	}
	// cut dispatches pending up to its last group boundary.
	cut := func() bool {
		i := len(pending)
		for i > 1 && types.CompareTuples(pending[i-1], pending[i-2], a.groupBy, nil) == 0 {
			i--
		}
		if i <= 1 {
			return true // one giant group: keep accumulating
		}
		i-- // index of the first tuple of the trailing (open) group
		chunk := pending[:i:i]
		rest := pending[i:]
		pending = make([]types.Tuple, len(rest), minPartitionRows+len(rest))
		copy(pending, rest)
		return emit(chunk)
	}

	dst := make([]types.Tuple, rel.DefaultBatchSize)
	for {
		select {
		case <-a.stop:
			finish(nil)
			return
		default:
		}
		n, readErr := a.in.NextBatch(dst)
		if readErr == nil && n == 0 {
			break
		}
		for i := 0; i < n && readErr == nil; i++ {
			readErr = take(dst[i])
		}
		if readErr != nil {
			fail(readErr)
			finish(readErr)
			return
		}
		if len(pending) >= minPartitionRows && !cut() {
			finish(nil)
			return
		}
	}
	if len(pending) > 0 {
		emit(pending)
	}
	finish(nil)
}

// advance installs the next partition's output as current. It returns
// false at end of stream (a.err may be set).
func (a *PTAggr) advance() bool {
	if a.eos || a.err != nil {
		return false
	}
	res, ok := <-a.parts
	if !ok {
		a.eos = true
		return false
	}
	r := <-res
	if r.err != nil {
		a.err = r.err
		return false
	}
	a.cur.Reset(r.rows)
	return true
}

// NextBatch serves the partition outputs in partition (= key) order.
func (a *PTAggr) NextBatch(dst []types.Tuple) (int, error) {
	if !a.opened {
		return 0, errNotOpened("taggr")
	}
	for {
		if n := a.cur.Read(dst); n > 0 {
			return n, nil
		}
		if !a.advance() {
			return 0, a.err
		}
	}
}

// Close stops the dispatcher, waits for it (and its workers) to exit,
// and reports the partition statistics. The input is closed by the
// dispatcher on its way out, or here when Open failed or was never
// called. Idempotent.
func (a *PTAggr) Close() error {
	if !a.opened {
		return a.in.Close()
	}
	a.opened = false
	close(a.stop)
	// Unblock a dispatcher waiting to hand over a future.
	for range a.parts {
	}
	<-a.done
	a.cur.Reset(nil)
	if a.OnStats != nil {
		a.OnStats(a.stats)
	}
	return a.closeErr
}

// PJoin is the partitioned JOIN^M / TJOIN^M: both sorted inputs are
// materialized, the left is cut at join-key boundaries, each left
// partition is joined (with the unchanged sequential algorithm)
// against the right subrange holding its key interval — located by
// binary search — and the partition outputs are concatenated in
// partition order. Key groups are never split and the sequential join
// is order preserving on the left input, so the result is
// tuple-for-tuple the sequential join's output.
type PJoin struct {
	left, right  rel.Input
	lkeys, rkeys []int

	temporal           bool
	lt1, lt2, rt1, rt2 int

	schema types.Schema

	// Parallelism bounds the concurrent partition workers.
	Parallelism int
	// OnStats, when set, receives the partition shape after Open.
	OnStats func(ParallelStats)

	parts [][]types.Tuple // partition outputs not yet served
	cur   rel.Cursor      // the partition being served
}

// NewPMergeJoin is the partitioned NewMergeJoin.
func NewPMergeJoin(left, right rel.Iterator, lkeys, rkeys []int, parallelism int) *PJoin {
	return &PJoin{
		left: rel.In(left), right: rel.In(right), lkeys: lkeys, rkeys: rkeys,
		schema:      left.Schema().Concat(right.Schema()),
		Parallelism: parallelism,
	}
}

// NewPTJoin is the partitioned NewTJoin.
func NewPTJoin(left, right rel.Iterator, lkeys, rkeys []int, lt1, lt2, rt1, rt2 int, parallelism int) *PJoin {
	return &PJoin{
		left: rel.In(left), right: rel.In(right), lkeys: lkeys, rkeys: rkeys,
		temporal: true, lt1: lt1, lt2: lt2, rt1: rt1, rt2: rt2,
		schema:      tjoinSchema(left.Schema(), right.Schema(), rt1, rt2),
		Parallelism: parallelism,
	}
}

// Schema returns the join output schema.
func (j *PJoin) Schema() types.Schema { return j.schema }

// Open materializes both inputs, partitions the left at key
// boundaries, and joins the partitions concurrently.
func (j *PJoin) Open() error {
	par := j.Parallelism
	if par < 1 {
		par = 1
	}
	op := "Join^M"
	if j.temporal {
		op = "TJoin^M"
	}
	j.parts = nil
	j.cur.Reset(nil)
	leftRows, err := drainSorted(&j.left, j.lkeys, "left")
	if err != nil {
		return err
	}
	rightRows, err := drainSorted(&j.right, j.rkeys, "right")
	if err != nil {
		return err
	}
	ls, rs := j.left.Schema(), j.right.Schema()
	parts := splitAtKeyBoundaries(leftRows, j.lkeys, par)
	stats := ParallelStats{Op: op, Workers: min2(par, len(parts))}
	for _, p := range parts {
		stats.observe(len(p))
	}
	outs, err := runPartitions(par, len(parts), func(i int) ([]types.Tuple, error) {
		part := parts[i]
		lo, hi := rightRange(rightRows, j.rkeys, part, j.lkeys)
		li := (&rel.Relation{Schema: ls, Tuples: part}).Iter()
		ri := (&rel.Relation{Schema: rs, Tuples: rightRows[lo:hi]}).Iter()
		var seq rel.Iterator
		if j.temporal {
			seq = NewTJoin(li, ri, j.lkeys, j.rkeys, j.lt1, j.lt2, j.rt1, j.rt2)
		} else {
			seq = NewMergeJoin(li, ri, j.lkeys, j.rkeys)
		}
		out, err := rel.Drain(seq)
		if err != nil {
			return nil, err
		}
		return out.Tuples, nil
	})
	if err != nil {
		return err
	}
	j.parts = outs
	if j.OnStats != nil {
		j.OnStats(stats)
	}
	return nil
}

// rightRange returns the half-open index range of right rows whose
// join key falls inside the left partition's [first, last] key
// interval. Both sides are sorted on their keys, so two binary
// searches suffice.
func rightRange(right []types.Tuple, rkeys []int, leftPart []types.Tuple, lkeys []int) (int, int) {
	if len(leftPart) == 0 || len(right) == 0 {
		return 0, 0
	}
	first, last := leftPart[0], leftPart[len(leftPart)-1]
	lo := sort.Search(len(right), func(i int) bool {
		return compareOn(right[i], rkeys, first, lkeys) >= 0
	})
	hi := sort.Search(len(right), func(i int) bool {
		return compareOn(right[i], rkeys, last, lkeys) > 0
	})
	return lo, hi
}

// NextBatch serves the concatenated partition outputs in partition
// order.
func (j *PJoin) NextBatch(dst []types.Tuple) (int, error) {
	for {
		if n := j.cur.Read(dst); n > 0 || len(j.parts) == 0 {
			return n, nil
		}
		j.cur.Reset(j.parts[0])
		j.parts = j.parts[1:]
	}
}

// Close releases the materialized result and closes every input Open
// did not reach (it stops at the first input that fails; without Open
// that is both).
func (j *PJoin) Close() error {
	j.parts = nil
	j.cur.Reset(nil)
	lerr := j.left.Close()
	rerr := j.right.Close()
	if lerr != nil {
		return lerr
	}
	return rerr
}

func min2(a, b int) int {
	if b < a {
		return b
	}
	return a
}
