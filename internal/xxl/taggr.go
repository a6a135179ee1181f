package xxl

import (
	"container/heap"
	"fmt"

	"tango/internal/rel"
	"tango/internal/types"
)

// AggKind names a temporal aggregate function.
type AggKind string

// Supported temporal aggregates.
const (
	AggCount AggKind = "COUNT"
	AggSum   AggKind = "SUM"
	AggAvg   AggKind = "AVG"
	AggMin   AggKind = "MIN"
	AggMax   AggKind = "MAX"
)

// AggSpec is one aggregate over a value column.
type AggSpec struct {
	Kind AggKind
	Col  int // value column index in the input; ignored for COUNT
}

// TAggr is TAGGR^M, the paper's temporal aggregation algorithm (§3.4):
// the argument must arrive sorted on the grouping attributes and T1
// (that external sort is a separate SORT^M or SORT^D step); the
// algorithm internally sorts a second copy of each group on T2 and
// sweeps both orders like a sort-merge, computing the aggregate values
// group by group over the constant intervals between event points.
// Memory use is the groups of one output batch, copied into the
// operator's arena with their output rows. Order preserving on the
// grouping attributes.
type TAggr struct {
	in      *rel.Reader
	groupBy []int
	t1, t2  int
	aggs    []AggSpec
	schema  types.Schema

	out     rel.Cursor  // intervals of the current group
	nextRow types.Tuple // lookahead into the next group
	prevRow types.Tuple // order validation
	inDone  bool
	opened  bool
	sortKey []int       // groupBy + T1, for input order validation
	mem     types.Arena // this batch's groups and output rows
}

// NewTAggr creates a temporal aggregation over input columns. The
// output schema is the group columns, T1, T2, then one column per
// aggregate; the caller supplies it (derived from the algebra).
func NewTAggr(in rel.Iterator, groupBy []int, t1, t2 int, aggs []AggSpec, out types.Schema) *TAggr {
	return &TAggr{in: rel.NewReader(in), groupBy: groupBy, t1: t1, t2: t2, aggs: aggs, schema: out}
}

// Schema returns the output schema.
func (a *TAggr) Schema() types.Schema { return a.schema }

// Open opens the input.
func (a *TAggr) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	a.out.Reset(nil)
	a.nextRow = nil
	a.prevRow = nil
	a.inDone = false
	a.opened = true
	a.sortKey = append(append([]int{}, a.groupBy...), a.t1)
	return nil
}

// Close closes the input.
func (a *TAggr) Close() error {
	a.out.Reset(nil)
	a.mem.Free()
	return a.in.Close()
}

// errTAggrUnsorted is the sorted-input contract violation (§3.4) for
// temporal aggregation; sequential and partitioned TAggr report it
// identically.
func errTAggrUnsorted(prev, cur types.Tuple) error {
	return fmt.Errorf("xxl: taggr input not sorted on grouping attributes and T1 (saw %v after %v)", cur, prev)
}

// NextBatch returns constant-interval aggregate rows, sweeping groups
// until dst is full. A group whose intervals did not all fit is
// finished first, in a batch of its own; then the memory of every row
// handed out before is taken back.
func (a *TAggr) NextBatch(dst []types.Tuple) (int, error) {
	if !a.opened {
		return 0, errNotOpened("taggr")
	}
	if n := a.out.Read(dst); n > 0 {
		return n, nil
	}
	a.mem.Reset()
	n := 0
	for n < len(dst) {
		if k := a.out.Read(dst[n:]); k > 0 {
			n += k
			continue
		}
		group, err := a.readGroup()
		if err != nil {
			return 0, err
		}
		if group == nil {
			break
		}
		a.out.Reset(a.sweep(group))
	}
	return n, nil
}

// readGroup collects copies of the next run of input tuples sharing
// the grouping attribute values (the input is sorted on them). nil
// means end of input. The lookahead and the row validated against are
// each the row before the one read next, which the reader keeps valid.
func (a *TAggr) readGroup() ([]types.Tuple, error) {
	var group []types.Tuple
	if a.nextRow != nil {
		group = append(group, a.mem.Copy(a.nextRow))
		a.nextRow = nil
	}
	for !a.inDone {
		t, ok, err := a.in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			a.inDone = true
			break
		}
		// The algorithm's contract (§3.4) requires the argument sorted
		// on the grouping attributes and T1; a violation means a broken
		// plan, and silent acceptance would produce wrong aggregates.
		if a.prevRow != nil && types.CompareTuples(a.prevRow, t, a.sortKey, nil) > 0 {
			return nil, errTAggrUnsorted(a.prevRow, t)
		}
		a.prevRow = t
		if len(group) > 0 && types.CompareTuples(group[0], t, a.groupBy, nil) != 0 {
			a.nextRow = t
			break
		}
		group = append(group, a.mem.Copy(t))
	}
	if len(group) == 0 {
		return nil, nil
	}
	return group, nil
}

// sweep computes the constant intervals for one group. The group
// arrives sorted by T1; a second copy is sorted by T2 (the paper's
// internal sort), and the two orders are merged as event streams.
func (a *TAggr) sweep(group []types.Tuple) []types.Tuple {
	byEnd := make([]types.Tuple, len(group))
	copy(byEnd, group)
	types.SortTuples(byEnd, []int{a.t2}, nil)

	states := make([]aggRun, len(a.aggs))
	for i, spec := range a.aggs {
		states[i] = newAggRun(spec)
	}

	timeSample := group[0][a.t1]
	var out []types.Tuple
	emit := func(from, to int64, active int) {
		if from >= to || active == 0 {
			return
		}
		row := a.mem.Make(a.schema.Len())[:0]
		for _, g := range a.groupBy {
			row = append(row, group[0][g])
		}
		row = append(row, coerceTime(timeSample, from), coerceTime(timeSample, to))
		for i := range states {
			row = append(row, states[i].result())
		}
		out = append(out, row)
	}

	si, ei := 0, 0 // cursors into starts (group) and ends (byEnd)
	active := 0
	var prev int64
	first := true
	for ei < len(byEnd) {
		// Next event point: the smaller of next start and next end.
		var p int64
		if si < len(group) {
			s := group[si][a.t1].AsInt()
			e := byEnd[ei][a.t2].AsInt()
			if s < e {
				p = s
			} else {
				p = e
			}
		} else {
			p = byEnd[ei][a.t2].AsInt()
		}
		if !first {
			emit(prev, p, active)
		}
		// Ends at p leave before starts at p arrive (closed-open).
		for ei < len(byEnd) && byEnd[ei][a.t2].AsInt() == p {
			for i := range states {
				states[i].remove(byEnd[ei])
			}
			active--
			ei++
		}
		for si < len(group) && group[si][a.t1].AsInt() == p {
			for i := range states {
				states[i].add(group[si])
			}
			active++
			si++
		}
		prev = p
		first = false
	}
	return out
}

// --- running aggregates ---

// aggRun maintains one aggregate under tuple arrival and departure.
type aggRun interface {
	add(t types.Tuple)
	remove(t types.Tuple)
	result() types.Value
}

func newAggRun(spec AggSpec) aggRun {
	switch spec.Kind {
	case AggCount:
		return &countRun{}
	case AggSum:
		return &sumRun{col: spec.Col}
	case AggAvg:
		return &sumRun{col: spec.Col, avg: true}
	case AggMin:
		return newExtremeRun(spec.Col, true)
	case AggMax:
		return newExtremeRun(spec.Col, false)
	default:
		return &countRun{}
	}
}

type countRun struct{ n int64 }

func (c *countRun) add(types.Tuple)     { c.n++ }
func (c *countRun) remove(types.Tuple)  { c.n-- }
func (c *countRun) result() types.Value { return types.Int(c.n) }

type sumRun struct {
	col   int
	sum   float64
	isInt bool
	any   bool
	n     int64
	avg   bool
}

func (s *sumRun) add(t types.Tuple) {
	v := t[s.col]
	if v.IsNull() {
		return
	}
	if !s.any {
		s.isInt = v.Kind() != types.KindFloat
		s.any = true
	}
	s.sum += v.AsFloat()
	s.n++
}

func (s *sumRun) remove(t types.Tuple) {
	v := t[s.col]
	if v.IsNull() {
		return
	}
	s.sum -= v.AsFloat()
	s.n--
}

func (s *sumRun) result() types.Value {
	if s.n == 0 {
		return types.Null
	}
	if s.avg {
		return types.Float(s.sum / float64(s.n))
	}
	if s.isInt {
		return types.Int(int64(s.sum))
	}
	return types.Float(s.sum)
}

// extremeRun tracks MIN or MAX with a lazy-deletion heap plus a live
// multiset, giving O(log n) amortized updates during the sweep.
type extremeRun struct {
	col  int
	min  bool
	h    valueHeap
	live map[string]int
}

func newExtremeRun(col int, min bool) *extremeRun {
	return &extremeRun{col: col, min: min, live: map[string]int{}}
}

func (e *extremeRun) key(v types.Value) string { return types.Tuple{v}.Key() }

func (e *extremeRun) add(t types.Tuple) {
	v := t[e.col]
	if v.IsNull() {
		return
	}
	e.live[e.key(v)]++
	heap.Push(&e.h, heapVal{v: v, min: e.min})
}

func (e *extremeRun) remove(t types.Tuple) {
	v := t[e.col]
	if v.IsNull() {
		return
	}
	k := e.key(v)
	if e.live[k] > 0 {
		e.live[k]--
		if e.live[k] == 0 {
			delete(e.live, k)
		}
	}
}

func (e *extremeRun) result() types.Value {
	for e.h.Len() > 0 {
		top := e.h.vals[0]
		if e.live[e.key(top.v)] > 0 {
			return top.v
		}
		heap.Pop(&e.h) // lazily discard departed values
	}
	return types.Null
}

type heapVal struct {
	v   types.Value
	min bool
}

type valueHeap struct{ vals []heapVal }

func (h *valueHeap) Len() int { return len(h.vals) }
func (h *valueHeap) Less(i, j int) bool {
	if h.vals[i].min {
		return types.Less(h.vals[i].v, h.vals[j].v)
	}
	return types.Less(h.vals[j].v, h.vals[i].v)
}
func (h *valueHeap) Swap(i, j int)      { h.vals[i], h.vals[j] = h.vals[j], h.vals[i] }
func (h *valueHeap) Push(x interface{}) { h.vals = append(h.vals, x.(heapVal)) }
func (h *valueHeap) Pop() interface{} {
	old := h.vals
	n := len(old)
	v := old[n-1]
	h.vals = old[:n-1]
	return v
}
