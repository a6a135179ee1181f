package xxl

import (
	"cmp"
	"fmt"
	"slices"

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
//
// A group is read a batch at a time into typed event arrays: its key,
// its T1 starts (already in order), its T2 ends and, per aggregate other
// than COUNT, that column's values, each indexed by the row's position
// in the group. No input row is kept past its batch. The second copy is
// the ends' positions sorted on T2; the sweep merges it with the starts
// into output rows. Memory use is the groups of one output batch, their
// key and string values and output rows held in the operator's arena;
// every array and aggregate state is reused across groups and Opens.
// Order preserving on the grouping attributes.
type TAggr struct {
	in      rel.Input
	groupBy []int
	t1, t2  int
	aggs    []aggRun
	schema  types.Schema

	buf    []types.Tuple // one input batch
	pos, n int           // the next unread row of buf, and the batch size
	inDone bool
	prev   types.Tuple // the row read last (order validation): in buf, or its copy in last
	last   types.Arena // the copy of the previous batch's last row
	opened bool

	// The group being read or swept.
	key    []types.Value // its grouping values, copied into mem
	sample types.Value   // Date(0) or Int(0): the kind of its periods
	starts []int64       // T1 by position, ascending
	ends   []int64       // T2 by position
	byEnd  []uint64      // positions in T2 order, packed under the end's offset (sweep)
	gone   []bool        // positions whose end the sweep has passed

	rows []types.Tuple // the swept group's output
	out  rel.Cursor    // the rows not yet handed out
	mem  types.Arena   // this batch's keys, string values and output rows
}

// NewTAggr creates a temporal aggregation over input columns. The
// output schema is the group columns, T1, T2, then one column per
// aggregate; the caller supplies it (derived from the algebra).
func NewTAggr(in rel.Iterator, groupBy []int, t1, t2 int, aggs []AggSpec, out types.Schema) *TAggr {
	a := &TAggr{in: rel.In(in), groupBy: groupBy, t1: t1, t2: t2, schema: out}
	for _, spec := range aggs {
		a.aggs = append(a.aggs, aggRun{AggSpec: spec})
	}
	return a
}

// Schema returns the output schema.
func (a *TAggr) Schema() types.Schema { return a.schema }

// Open opens the input.
func (a *TAggr) Open() error {
	if err := a.in.Open(); err != nil {
		return err
	}
	if a.buf == nil {
		a.buf = make([]types.Tuple, rel.DefaultBatchSize)
	}
	a.pos, a.n, a.inDone, a.prev = 0, 0, false, nil
	a.out.Reset(nil)
	a.opened = true
	return nil
}

// Close closes the input.
func (a *TAggr) Close() error {
	a.out.Reset(nil)
	a.prev = nil
	a.mem.Free()
	a.last.Free()
	return a.in.Close()
}

// errTAggrUnsorted is the sorted-input contract violation (§3.4) for
// temporal aggregation.
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
		ok, err := a.readGroup()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		a.out.Reset(a.sweep())
	}
	return n, nil
}

// readGroup reads the next run of input rows sharing the grouping
// attribute values (the input is sorted on them) into the group's
// arrays; false means end of input. The first row of the next group
// stays unread in buf.
func (a *TAggr) readGroup() (bool, error) {
	a.starts, a.ends = a.starts[:0], a.ends[:0]
	for i := range a.aggs {
		a.aggs[i].vals = a.aggs[i].vals[:0]
	}
	for {
		if a.pos == a.n {
			if a.inDone {
				break
			}
			if a.prev != nil {
				a.last.Reset()
				a.prev = a.last.Copy(a.prev) // the pull may overwrite it
			}
			n, err := a.in.NextBatch(a.buf)
			if err != nil {
				return false, err
			}
			a.pos, a.n, a.inDone = 0, n, n == 0
			continue
		}
		t := a.buf[a.pos]
		if a.prev != nil {
			// The algorithm's contract (§3.4) requires the argument
			// sorted on the grouping attributes and T1; a violation
			// means a broken plan, and silent acceptance would produce
			// wrong aggregates.
			c := types.CompareTuples(a.prev, t, a.groupBy, nil)
			if c > 0 || c == 0 && types.Compare(a.prev[a.t1], t[a.t1]) > 0 {
				return false, errTAggrUnsorted(a.prev, t)
			}
			if c != 0 && len(a.starts) > 0 {
				break
			}
		}
		if len(a.starts) == 0 {
			a.key = a.key[:0]
			for _, g := range a.groupBy {
				a.key = append(a.key, a.mem.Value(t[g]))
			}
			a.sample = coerceTime(t[a.t1], 0)
		}
		a.starts = append(a.starts, t[a.t1].AsInt())
		a.ends = append(a.ends, t[a.t2].AsInt())
		for i := range a.aggs {
			if r := &a.aggs[i]; r.Kind != AggCount {
				r.vals = append(r.vals, a.mem.Value(t[r.Col]))
			}
		}
		a.prev = t
		a.pos++
	}
	return len(a.starts) > 0, nil
}

// sweep computes the constant intervals of the group read last: it
// sorts the ends' positions on T2 (among equal ends, in T1 order) and
// merges them with the starts as two event streams.
func (a *TAggr) sweep() []types.Tuple {
	n := len(a.starts)
	lo, hi := slices.Min(a.ends), slices.Max(a.ends)
	a.byEnd = a.byEnd[:0]
	// The key packs the end's offset above the position (a group is far
	// below 2^32 rows), so one integer sort keeps equal ends in T1 order.
	if uint64(hi-lo) < 1<<32 {
		for i, e := range a.ends {
			a.byEnd = append(a.byEnd, uint64(e-lo)<<32|uint64(i))
		}
		slices.Sort(a.byEnd)
	} else {
		for i := range a.ends {
			a.byEnd = append(a.byEnd, uint64(i))
		}
		slices.SortStableFunc(a.byEnd, func(x, y uint64) int { return cmp.Compare(a.ends[x], a.ends[y]) })
	}
	a.gone = append(a.gone[:0], make([]bool, n)...)
	for i := range a.aggs {
		a.aggs[i].reset()
	}

	a.rows = a.rows[:0]
	si, ei, active := 0, 0, 0
	var prev int64
	for ei < n {
		// Next event point: the smaller of next start and next end.
		p := a.ends[uint32(a.byEnd[ei])]
		if si < n && a.starts[si] < p {
			p = a.starts[si]
		}
		if si+ei > 0 { // past the first event point
			a.emit(prev, p, active)
		}
		// Ends at p leave before starts at p arrive (closed-open).
		for ; ei < n && a.ends[uint32(a.byEnd[ei])] == p; ei++ {
			pos := int(uint32(a.byEnd[ei]))
			a.gone[pos] = true
			for i := range a.aggs {
				a.aggs[i].remove(pos)
			}
			active--
		}
		for ; si < n && a.starts[si] == p; si++ {
			for i := range a.aggs {
				a.aggs[i].add(si, a.gone)
			}
			active++
		}
		prev = p
	}
	return a.rows
}

// emit appends the output row of the constant interval [from, to) of
// the current group, unless it is empty or no row is valid in it.
func (a *TAggr) emit(from, to int64, active int) {
	if from >= to || active == 0 {
		return
	}
	row := append(a.mem.Make(a.schema.Len())[:0], a.key...)
	row = append(row, coerceTime(a.sample, from), coerceTime(a.sample, to))
	for i := range a.aggs {
		row = append(row, a.aggs[i].result(active, a.gone))
	}
	a.rows = append(a.rows, row)
}

// --- running aggregates ---

// aggRun maintains one aggregate under arrivals and departures of the
// group's rows, by position. COUNT is the sweep's active count.
type aggRun struct {
	AggSpec
	vals []types.Value // the group's values of Col, by position (not COUNT)

	sum   float64 // SUM and AVG: the non-NULL values'
	n     int64
	isInt bool // the first value summed is not a float
	any   bool

	heap []int // MIN and MAX: positions, the extreme value on top; departed ones are popped lazily
}

func (r *aggRun) reset() {
	r.sum, r.n, r.isInt, r.any = 0, 0, false, false
	r.heap = r.heap[:0]
}

// add brings in the row at pos; one whose end the sweep has already
// passed (an empty or inverted period) never enters MIN or MAX.
func (r *aggRun) add(pos int, gone []bool) {
	switch r.Kind {
	case AggSum, AggAvg:
		v := r.vals[pos]
		if v.IsNull() {
			return
		}
		if !r.any {
			r.isInt = v.Kind() != types.KindFloat
			r.any = true
		}
		r.sum += v.AsFloat()
		r.n++
	case AggMin, AggMax:
		if !r.vals[pos].IsNull() && !gone[pos] {
			r.push(pos)
		}
	}
}

// remove takes out the row at pos. MIN and MAX leave it in the heap
// until it surfaces on top (result).
func (r *aggRun) remove(pos int) {
	if r.Kind == AggSum || r.Kind == AggAvg {
		if v := r.vals[pos]; !v.IsNull() {
			r.sum -= v.AsFloat()
			r.n--
		}
	}
}

func (r *aggRun) result(active int, gone []bool) types.Value {
	switch r.Kind {
	case AggSum, AggAvg:
		switch {
		case r.n == 0:
			return types.Null
		case r.Kind == AggAvg:
			return types.Float(r.sum / float64(r.n))
		case r.isInt:
			return types.Int(int64(r.sum))
		}
		return types.Float(r.sum)
	case AggMin, AggMax:
		for len(r.heap) > 0 && gone[r.heap[0]] {
			r.pop()
		}
		if len(r.heap) == 0 {
			return types.Null
		}
		return r.vals[r.heap[0]]
	}
	return types.Int(int64(active))
}

// above reports whether the value at position i belongs above j's in
// the heap.
func (r *aggRun) above(i, j int) bool {
	c := types.Compare(r.vals[i], r.vals[j])
	return c < 0 && r.Kind == AggMin || c > 0 && r.Kind == AggMax
}

func (r *aggRun) push(pos int) {
	h := append(r.heap, pos)
	for c := len(h) - 1; c > 0 && r.above(h[c], h[(c-1)/2]); c = (c - 1) / 2 {
		h[c], h[(c-1)/2] = h[(c-1)/2], h[c]
	}
	r.heap = h
}

func (r *aggRun) pop() {
	h := r.heap
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for p := 0; ; {
		c := 2*p + 1
		if c+1 < len(h) && r.above(h[c+1], h[c]) {
			c++
		}
		if c >= len(h) || !r.above(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		p = c
	}
	r.heap = h
}
