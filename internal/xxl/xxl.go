package xxl

import (
	"fmt"

	"tango/internal/eval"
	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// Filter is FILTER^M: predicate selection in the middleware. Order
// preserving.
type Filter struct {
	in   rel.Input
	pred eval.Func
}

// NewFilter compiles the predicate against the input schema.
func NewFilter(in rel.Iterator, pred sqlast.Expr) (*Filter, error) {
	f, err := eval.Compile(pred, in.Schema())
	if err != nil {
		return nil, err
	}
	return NewFilterFunc(in, f), nil
}

// NewFilterFunc filters by a predicate already compiled against the
// input schema.
func NewFilterFunc(in rel.Iterator, pred eval.Func) *Filter {
	return &Filter{in: rel.In(in), pred: pred}
}

// Schema returns the input schema.
func (f *Filter) Schema() types.Schema { return f.in.Schema() }

// Open opens the input.
func (f *Filter) Open() error { return f.in.Open() }

// Close closes the input.
func (f *Filter) Close() error { return f.in.Close() }

// NextBatch passes on the tuples satisfying the predicate.
func (f *Filter) NextBatch(dst []types.Tuple) (int, error) {
	return rel.Select(&f.in, dst, func(t types.Tuple) (bool, error) {
		v, err := f.pred(t)
		return !v.IsNull() && v.AsBool(), err
	})
}

// Project is PROJECT^M: column selection/renaming by position. Order
// preserving.
type Project struct {
	in     rel.Input
	idx    []int
	schema types.Schema
	rows   types.Arena // the last batch's output rows
}

// NewProject keeps the input columns at the given indexes, renaming
// them per the output schema.
func NewProject(in rel.Iterator, idx []int, out types.Schema) *Project {
	return &Project{in: rel.In(in), idx: idx, schema: out}
}

// Schema returns the output schema.
func (p *Project) Schema() types.Schema { return p.schema }

// Open opens the input.
func (p *Project) Open() error { return p.in.Open() }

// Close closes the input.
func (p *Project) Close() error { p.rows.Free(); return p.in.Close() }

// NextBatch pulls an input batch into dst and replaces each tuple by
// its projection, written over the last batch's.
func (p *Project) NextBatch(dst []types.Tuple) (int, error) {
	n, err := p.in.NextBatch(dst)
	if err != nil || n == 0 {
		return 0, err
	}
	p.rows.Reset()
	for i, t := range dst[:n] {
		out := p.rows.Make(len(p.idx))
		for j, k := range p.idx {
			out[j] = t[k]
		}
		dst[i] = out
	}
	return n, nil
}

// MergeJoin is JOIN^M: a sort-merge equi-join. Both inputs must be
// sorted on their join columns. As in SQL, a key with a NULL column
// matches nothing, NULL included. Output order follows the left input
// (order preserving in the paper's sense). The right rows of the
// current key group are copied into the join's arena, and each output
// row, strings too, into the rows of its batch, so none aliases an
// input row a later pull may overwrite.
type MergeJoin struct {
	left, right  *rel.Reader
	lkeys, rkeys []int
	schema       types.Schema

	lcur   types.Tuple
	lprev  types.Tuple   // previous left tuple; run matches its key
	run    []types.Tuple // right tuples matching lprev's key
	runMem types.Arena   // their copies
	ri     int
	rnext  types.Tuple // lookahead on right
	rdone  bool
	opened bool
	cand   types.Tuple // an output row, before it is copied
	out    types.Arena // the batch's output rows
}

// NewMergeJoin joins sorted inputs on pairwise key columns.
func NewMergeJoin(left, right rel.Iterator, lkeys, rkeys []int) *MergeJoin {
	return &MergeJoin{
		left: rel.NewReader(left), right: rel.NewReader(right), lkeys: lkeys, rkeys: rkeys,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema returns the concatenated schema.
func (j *MergeJoin) Schema() types.Schema { return j.schema }

// Open opens both inputs.
func (j *MergeJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.lcur, j.lprev, j.run, j.ri = nil, nil, nil, 0
	j.rnext, j.rdone = nil, false
	j.opened = true
	if err := j.advanceRight(); err != nil {
		return err
	}
	return nil
}

func (j *MergeJoin) advanceRight() error {
	t, ok, err := j.right.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.rnext = nil
		j.rdone = true
		return nil
	}
	// Validate the sorted-input contract: silently accepting unsorted
	// input would drop join matches.
	if j.rnext != nil {
		if types.CompareTuples(j.rnext, t, j.rkeys, nil) > 0 {
			return errJoinUnsorted("right")
		}
	}
	j.rnext = t
	return nil
}

// compareOn orders a's akeys columns against b's bkeys columns.
func compareOn(a types.Tuple, akeys []int, b types.Tuple, bkeys []int) int {
	for i, k := range akeys {
		if c := types.Compare(a[k], b[bkeys[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// nullKey reports whether one of t's key columns is NULL.
func nullKey(t types.Tuple, keys []int) bool {
	for _, k := range keys {
		if t[k].IsNull() {
			return true
		}
	}
	return false
}

// NextBatch produces joined tuples.
func (j *MergeJoin) NextBatch(dst []types.Tuple) (int, error) {
	j.out.Reset()
	return rel.Fill(dst, func() (types.Tuple, bool, error) {
		l, r, ok, err := j.nextPair()
		if !ok {
			return nil, false, err
		}
		j.cand = append(append(j.cand[:0], l...), r...)
		return j.out.Copy(j.cand), true, nil
	})
}

// nextPair returns the next pair of a left and a right tuple with
// equal join keys; TJoin builds its own output row from it.
func (j *MergeJoin) nextPair() (l, r types.Tuple, ok bool, err error) {
	if !j.opened {
		return nil, nil, false, fmt.Errorf("xxl: merge join not opened")
	}
	for {
		// Emit pairs from the current run.
		if j.lcur != nil && j.ri < len(j.run) {
			j.ri++
			return j.lcur, j.run[j.ri-1], true, nil
		}
		// Advance left.
		t, ok, err := j.left.Next()
		if err != nil || !ok {
			return nil, nil, false, err
		}
		j.lcur = t
		if j.lprev != nil {
			switch compareOn(t, j.lkeys, j.lprev, j.lkeys) {
			case 0:
				j.lprev = t // the row before the next: the reader keeps it valid
				j.ri = 0    // same key: reuse the run
				continue
			case -1:
				return nil, nil, false, errJoinUnsorted("left")
			}
		}
		j.lprev = t
		// Advance right until its key >= the left key, collecting the matching run.
		j.run = j.run[:0]
		j.runMem.Reset()
		j.ri = 0
		if nullKey(t, j.lkeys) {
			continue // NULL keys never join: the run stays empty for t's key
		}
		for !j.rdone {
			c := compareOn(j.rnext, j.rkeys, t, j.lkeys)
			if c > 0 {
				break
			}
			if c == 0 {
				j.run = append(j.run, j.runMem.Copy(j.rnext))
			}
			if err := j.advanceRight(); err != nil {
				return nil, nil, false, err
			}
		}
	}
}

// Close closes both inputs.
func (j *MergeJoin) Close() error {
	err1 := j.left.Close()
	err2 := j.right.Close()
	j.run = nil
	j.runMem.Free()
	j.out.Free()
	if err1 != nil {
		return err1
	}
	return err2
}

// TJoin is TJOIN^M: a temporal sort-merge join. Inputs sorted on their
// equi-join columns; within each matching group, pairs with
// overlapping [T1, T2) periods are emitted with the intersected
// period. The output schema is the left schema (T1/T2 now the
// intersection) plus the right schema minus its time columns.
type TJoin struct {
	mj       *MergeJoin
	lt1, lt2 int
	rt1, rt2 int // offsets within the right tuple
	schema   types.Schema
}

// NewTJoin builds a temporal join over inputs sorted by their equi
// columns. lt1/lt2 index the left input's period; rt1/rt2 the right's.
func NewTJoin(left, right rel.Iterator, lkeys, rkeys []int, lt1, lt2, rt1, rt2 int) *TJoin {
	rs := right.Schema()
	return &TJoin{
		mj:  NewMergeJoin(left, right, lkeys, rkeys),
		lt1: lt1, lt2: lt2, rt1: rt1, rt2: rt2,
		schema: tjoinSchema(left.Schema(), rs, rt1, rt2),
	}
}

// tjoinSchema is the temporal-join output schema: the left schema
// (T1/T2 will carry the intersected period) plus the right schema
// minus its time columns.
func tjoinSchema(ls, rs types.Schema, rt1, rt2 int) types.Schema {
	cols := append([]types.Column{}, ls.Cols...)
	for i, c := range rs.Cols {
		if i == rt1 || i == rt2 {
			continue
		}
		cols = append(cols, c)
	}
	return types.Schema{Cols: cols}
}

// errJoinUnsorted is the sorted-input contract violation for merge
// joins.
func errJoinUnsorted(side string) error {
	return fmt.Errorf("xxl: merge join %s input not sorted on join keys", side)
}

// errNotOpened reports use of an operator before Open.
func errNotOpened(op string) error {
	return fmt.Errorf("xxl: %s not opened", op)
}

// Schema returns the temporal-join output schema.
func (j *TJoin) Schema() types.Schema { return j.schema }

// Open opens the underlying merge join.
func (j *TJoin) Open() error { return j.mj.Open() }

// Close closes the underlying merge join.
func (j *TJoin) Close() error { return j.mj.Close() }

// NextBatch produces the overlapping pairs with their intersected
// periods.
func (j *TJoin) NextBatch(dst []types.Tuple) (int, error) {
	j.mj.out.Reset()
	return rel.Fill(dst, func() (types.Tuple, bool, error) {
		for {
			l, r, ok, err := j.mj.nextPair()
			if !ok {
				return nil, false, err
			}
			lp := types.Period{Start: l[j.lt1].AsInt(), End: l[j.lt2].AsInt()}
			rp := types.Period{Start: r[j.rt1].AsInt(), End: r[j.rt2].AsInt()}
			inter, ok := lp.Intersect(rp)
			if !ok {
				continue
			}
			out := append(j.mj.cand[:0], l...)
			out[j.lt1] = coerceTime(l[j.lt1], inter.Start)
			out[j.lt2] = coerceTime(l[j.lt2], inter.End)
			for i, v := range r {
				if i != j.rt1 && i != j.rt2 {
					out = append(out, v)
				}
			}
			j.mj.cand = out
			return j.mj.out.Copy(out), true, nil
		}
	})
}

// coerceTime builds a time value of the same kind as the sample.
func coerceTime(sample types.Value, day int64) types.Value {
	if sample.Kind() == types.KindDate {
		return types.Date(day)
	}
	return types.Int(day)
}

// DupElim is DUPELIM^M: hash-based duplicate elimination, keeping the
// first occurrence (order preserving). A key table holds the tuples
// seen.
type DupElim struct {
	in   rel.Input
	seen types.KeyTable
}

// NewDupElim removes duplicate tuples.
func NewDupElim(in rel.Iterator) *DupElim { return &DupElim{in: rel.In(in)} }

// Schema returns the input schema.
func (d *DupElim) Schema() types.Schema { return d.in.Schema() }

// Open opens the input and resets state.
func (d *DupElim) Open() error {
	d.seen.Reset(d.in.Schema().Len())
	return d.in.Open()
}

// Close closes the input.
func (d *DupElim) Close() error {
	d.seen.Free()
	return d.in.Close()
}

// NextBatch passes on the first occurrence of every tuple.
func (d *DupElim) NextBatch(dst []types.Tuple) (int, error) {
	return rel.Select(&d.in, dst, func(t types.Tuple) (bool, error) {
		_, added := d.seen.Insert(t)
		return added, nil
	})
}

// Coalesce is COALESCE^M: merges value-equivalent tuples whose periods
// overlap or meet. The input must be sorted on all non-time columns
// and then T1. A current row it extends is its own copy, and each
// output row is copied into the rows of its batch.
type Coalesce struct {
	in      *rel.Reader
	t1, t2  int
	pending types.Tuple
	owned   bool        // pending is this operator's copy, not an input tuple
	mem     types.Arena // pending's copy
	out     types.Arena // the batch's output rows
	done    bool
}

// NewCoalesce coalesces periods at columns t1/t2 of a sorted input.
func NewCoalesce(in rel.Iterator, t1, t2 int) *Coalesce {
	return &Coalesce{in: rel.NewReader(in), t1: t1, t2: t2}
}

// Schema returns the input schema.
func (c *Coalesce) Schema() types.Schema { return c.in.Schema() }

// Open opens the input.
func (c *Coalesce) Open() error {
	c.pending = nil
	c.done = false
	return c.in.Open()
}

// Close closes the input.
func (c *Coalesce) Close() error {
	c.mem.Free()
	c.out.Free()
	return c.in.Close()
}

// valueEquivalent compares all non-time columns.
func (c *Coalesce) valueEquivalent(a, b types.Tuple) bool {
	for i := range a {
		if i == c.t1 || i == c.t2 {
			continue
		}
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// NextBatch produces maximal coalesced tuples.
func (c *Coalesce) NextBatch(dst []types.Tuple) (int, error) {
	c.out.Reset()
	return rel.Fill(dst, c.next)
}

func (c *Coalesce) next() (types.Tuple, bool, error) {
	if c.done {
		return nil, false, nil
	}
	for {
		t, ok, err := c.in.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			c.done = true
			if c.pending != nil {
				out := c.out.Copy(c.pending)
				c.pending = nil
				return out, true, nil
			}
			return nil, false, nil
		}
		if c.pending == nil {
			c.pending, c.owned = t, false
			continue
		}
		p := types.Period{Start: c.pending[c.t1].AsInt(), End: c.pending[c.t2].AsInt()}
		q := types.Period{Start: t[c.t1].AsInt(), End: t[c.t2].AsInt()}
		if c.valueEquivalent(c.pending, t) && q.Start <= p.End {
			// Extend the pending period — in a copy: input tuples are
			// not ours to write. The pending row is the one before t,
			// which the reader keeps valid.
			if !c.owned {
				c.mem.Reset()
				c.pending, c.owned = c.mem.Copy(c.pending), true
			}
			m := p.Merge(q)
			c.pending[c.t1] = coerceTime(c.pending[c.t1], m.Start)
			c.pending[c.t2] = coerceTime(c.pending[c.t2], m.End)
			continue
		}
		out := c.out.Copy(c.pending)
		c.pending, c.owned = t, false
		return out, true, nil
	}
}

// NewPTAggr is NewTAggr; parallelism is ignored.
//
// Deprecated: kept only for the benchmark module's replay; use NewTAggr.
func NewPTAggr(in rel.Iterator, groupBy []int, t1, t2 int, aggs []AggSpec, out types.Schema, parallelism int) *TAggr {
	return NewTAggr(in, groupBy, t1, t2, aggs, out)
}

// NewPMergeJoin is NewMergeJoin; parallelism is ignored.
//
// Deprecated: kept only for the benchmark module's replay; use NewMergeJoin.
func NewPMergeJoin(left, right rel.Iterator, lkeys, rkeys []int, parallelism int) *MergeJoin {
	return NewMergeJoin(left, right, lkeys, rkeys)
}

// NewPTJoin is NewTJoin; parallelism is ignored.
//
// Deprecated: kept only for the benchmark module's replay; use NewTJoin.
func NewPTJoin(left, right rel.Iterator, lkeys, rkeys []int, lt1, lt2, rt1, rt2 int, parallelism int) *TJoin {
	return NewTJoin(left, right, lkeys, rkeys, lt1, lt2, rt1, rt2)
}
