package engine

import (
	"fmt"

	"tango/internal/btree"
	"tango/internal/rel"
	"tango/internal/storage"
	"tango/internal/types"
)

// --- Heap scan ---

// heapScan streams all live tuples of a table page-at-a-time through
// the buffer pool: memory use is one page of decoded tuples, and the
// pool's read accounting reflects the scan.
type heapScan struct {
	table  *Table
	schema types.Schema

	numPages int
	pageNo   int32
	buf      []types.Tuple
	pos      int
	opened   bool
}

func newHeapScan(t *Table, qualifier string) *heapScan {
	schema := t.Schema
	if qualifier != "" {
		schema = schema.Qualify(qualifier)
	}
	return &heapScan{table: t, schema: schema}
}

func (s *heapScan) Schema() types.Schema { return s.schema }

func (s *heapScan) Open() error {
	// The scan covers exactly the pinned version's visibility bound:
	// pages appended by concurrent commits lie past it, and the tail
	// page is cut at the version's slot count.
	s.numPages = int(s.table.pages)
	s.pageNo = 0
	s.buf = s.buf[:0]
	s.pos = 0
	s.opened = true
	return nil
}

func (s *heapScan) Next() (types.Tuple, bool, error) {
	if !s.opened {
		return nil, false, fmt.Errorf("engine: scan not opened")
	}
	for s.pos >= len(s.buf) {
		if int(s.pageNo) >= s.numPages {
			return nil, false, nil
		}
		maxSlots := -1
		if int(s.pageNo) == s.numPages-1 {
			maxSlots = int(s.table.tailSlots)
		}
		var err error
		s.buf, err = s.table.Heap.PageTuplesN(s.pageNo, maxSlots, s.buf[:0])
		if err != nil {
			return nil, false, err
		}
		s.pageNo++
		s.pos = 0
	}
	t := s.buf[s.pos]
	s.pos++
	return t, true, nil
}

func (s *heapScan) Close() error { s.buf = nil; return nil }

// --- Index scan ---

// indexScan reads tuples via a secondary index in key order, optionally
// restricted to a key range.
type indexScan struct {
	table  *Table
	col    string
	schema types.Schema
	lo, hi types.Value
	hiIncl bool
	rids   []storage.RecordID
	pos    int
}

func newIndexScan(t *Table, qualifier, col string, lo, hi types.Value, hiIncl bool) *indexScan {
	schema := t.Schema
	if qualifier != "" {
		schema = schema.Qualify(qualifier)
	}
	return &indexScan{table: t, col: col, schema: schema, lo: lo, hi: hi, hiIncl: hiIncl}
}

func (s *indexScan) Schema() types.Schema { return s.schema }

func (s *indexScan) Open() error {
	idx := s.table.Index(s.col)
	if idx == nil {
		return fmt.Errorf("engine: no index on %s.%s", s.table.Name, s.col)
	}
	s.rids = s.rids[:0]
	s.pos = 0
	// Index trees may be shared with later versions (in-place single
	// row inserts); the version's visibility bound filters entries the
	// snapshot must not see.
	idx.AscendRange(s.lo, s.hi, s.hiIncl, func(e btree.Entry) bool {
		if s.table.visible(e.RID) {
			s.rids = append(s.rids, e.RID)
		}
		return true
	})
	return nil
}

func (s *indexScan) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.rids) {
		return nil, false, nil
	}
	t, err := s.table.Heap.Get(s.rids[s.pos])
	if err != nil {
		return nil, false, err
	}
	s.pos++
	return t, true, nil
}

func (s *indexScan) Close() error { s.rids = nil; return nil }

// --- Filter ---

type filterIter struct {
	in   rel.Iterator
	pred evalFunc
}

func newFilter(in rel.Iterator, pred evalFunc) *filterIter {
	return &filterIter{in: in, pred: pred}
}

func (f *filterIter) Schema() types.Schema { return f.in.Schema() }
func (f *filterIter) Open() error          { return f.in.Open() }
func (f *filterIter) Close() error         { return f.in.Close() }

func (f *filterIter) Next() (types.Tuple, bool, error) {
	for {
		t, ok, err := f.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.pred(t)
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.AsBool() {
			return t, true, nil
		}
	}
}

// --- Project ---

type projectIter struct {
	in     rel.Iterator
	schema types.Schema
	exprs  []evalFunc
	rows   types.TupleAlloc
}

func newProject(in rel.Iterator, schema types.Schema, exprs []evalFunc) *projectIter {
	return &projectIter{in: in, schema: schema, exprs: exprs}
}

func (p *projectIter) Schema() types.Schema { return p.schema }
func (p *projectIter) Open() error          { return p.in.Open() }
func (p *projectIter) Close() error         { return p.in.Close() }

func (p *projectIter) Next() (types.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.rows.Make(len(p.exprs))
	for i, e := range p.exprs {
		v, err := e(t)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// --- Sort ---

// sortIter materializes its input and sorts it by key expressions.
type sortIter struct {
	in    rel.Iterator
	keys  []evalFunc
	descs []bool
	rows  []types.Tuple
	pos   int
}

func newSort(in rel.Iterator, keys []evalFunc, descs []bool) *sortIter {
	return &sortIter{in: in, keys: keys, descs: descs}
}

func (s *sortIter) Schema() types.Schema { return s.in.Schema() }

func (s *sortIter) Open() error {
	if err := s.in.Open(); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	s.pos = 0
	for {
		t, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, t)
	}
	if err := sortByKeys(s.rows, s.keys, s.descs); err != nil {
		return err
	}
	return s.in.Close()
}

// sortByKeys stably sorts rows by key expressions, reporting the first
// evaluation error.
func sortByKeys(rows []types.Tuple, keys []evalFunc, descs []bool) error {
	var keyErr error
	types.SortTuplesFunc(rows, len(keys), func(t types.Tuple, k int) types.Value {
		v, err := keys[k](t)
		if err != nil && keyErr == nil {
			keyErr = err
		}
		return v
	}, descs)
	return keyErr
}

func (s *sortIter) Next() (types.Tuple, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *sortIter) Close() error { s.rows = nil; return nil }

// --- Joins ---

// concatIf builds the join candidate l ++ r in rows and keeps it when
// pred (nil means always) holds; a rejected candidate's memory goes to
// the next one.
func concatIf(rows *types.TupleAlloc, l, r types.Tuple, pred evalFunc) (types.Tuple, bool, error) {
	out := rows.Make(len(l) + len(r))
	copy(out[copy(out, l):], r)
	if pred != nil {
		v, err := pred(out)
		if err != nil || v.IsNull() || !v.AsBool() {
			rows.Undo(out)
			return nil, false, err
		}
	}
	return out, true, nil
}

// --- Nested-loop join ---

// nlJoin is a block nested-loop join: the right input is materialized
// once, the left input streams; pred (may be nil) filters the
// concatenated tuple.
type nlJoin struct {
	left, right rel.Iterator
	pred        evalFunc
	schema      types.Schema
	rightRows   []types.Tuple
	cur         types.Tuple
	ri          int
	rows        types.TupleAlloc
}

func newNLJoin(left, right rel.Iterator, pred evalFunc) *nlJoin {
	return &nlJoin{
		left: left, right: right, pred: pred,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (j *nlJoin) Schema() types.Schema { return j.schema }

func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.rightRows = j.rightRows[:0]
	for {
		t, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.rightRows = append(j.rightRows, t)
	}
	j.cur = nil
	j.ri = 0
	return j.right.Close()
}

func (j *nlJoin) Next() (types.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.ri = 0
		}
		for j.ri < len(j.rightRows) {
			r := j.rightRows[j.ri]
			j.ri++
			out, ok, err := concatIf(&j.rows, j.cur, r, j.pred)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

func (j *nlJoin) Close() error {
	j.rightRows = nil
	return j.left.Close()
}

// --- Index nested-loop join ---

// indexNLJoin probes an index on the inner table for each outer tuple.
// The join must be an equality on outerKey = inner indexed column;
// residual (may be nil) filters the concatenated tuple.
type indexNLJoin struct {
	outer    rel.Iterator
	inner    *Table
	innerQ   string // qualifier for inner schema
	innerCol string // indexed column (unqualified)
	outerKey evalFunc
	residual evalFunc
	schema   types.Schema

	cur     types.Tuple
	matches []types.Tuple
	mi      int
	rows    types.TupleAlloc
}

func newIndexNLJoin(outer rel.Iterator, inner *Table, innerQ, innerCol string, outerKey evalFunc, residual evalFunc) *indexNLJoin {
	is := inner.Schema
	if innerQ != "" {
		is = is.Qualify(innerQ)
	}
	return &indexNLJoin{
		outer: outer, inner: inner, innerQ: innerQ, innerCol: innerCol,
		outerKey: outerKey, residual: residual,
		schema: outer.Schema().Concat(is),
	}
}

func (j *indexNLJoin) Schema() types.Schema { return j.schema }

func (j *indexNLJoin) Open() error {
	if j.inner.Index(j.innerCol) == nil {
		return fmt.Errorf("engine: no index on %s.%s", j.inner.Name, j.innerCol)
	}
	j.cur = nil
	return j.outer.Open()
}

func (j *indexNLJoin) Next() (types.Tuple, bool, error) {
	idx := j.inner.Index(j.innerCol)
	for {
		if j.cur == nil {
			t, ok, err := j.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			key, err := j.outerKey(j.cur)
			if err != nil {
				return nil, false, err
			}
			j.matches = j.matches[:0]
			if !key.IsNull() {
				for _, rid := range idx.Lookup(key) {
					if !j.inner.visible(rid) {
						continue
					}
					it, err := j.inner.Heap.Get(rid)
					if err != nil {
						return nil, false, err
					}
					j.matches = append(j.matches, it)
				}
			}
			j.mi = 0
		}
		for j.mi < len(j.matches) {
			r := j.matches[j.mi]
			j.mi++
			out, ok, err := concatIf(&j.rows, j.cur, r, j.residual)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

func (j *indexNLJoin) Close() error { return j.outer.Close() }

// --- Hash join ---

// hashJoin builds a hash table on the right input keyed by the right
// key expressions and probes with the left; residual (may be nil)
// filters concatenated tuples.
type hashJoin struct {
	left, right         rel.Iterator
	leftKeys, rightKeys []evalFunc
	residual            evalFunc
	schema              types.Schema

	table  map[uint64][]types.Tuple
	cur    types.Tuple
	bucket []types.Tuple
	bi     int
	rows   types.TupleAlloc
}

func newHashJoin(left, right rel.Iterator, leftKeys, rightKeys []evalFunc, residual evalFunc) *hashJoin {
	return &hashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys, residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (j *hashJoin) Schema() types.Schema { return j.schema }

func hashKeys(t types.Tuple, keys []evalFunc) (uint64, bool, error) {
	var h uint64 = 14695981039346656037
	for _, k := range keys {
		v, err := k(t)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil // NULL keys never join
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

func (j *hashJoin) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	j.table = map[uint64][]types.Tuple{}
	for {
		t, ok, err := j.right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h, valid, err := hashKeys(t, j.rightKeys)
		if err != nil {
			return err
		}
		if valid {
			j.table[h] = append(j.table[h], t)
		}
	}
	if err := j.right.Close(); err != nil {
		return err
	}
	j.cur = nil
	return j.left.Open()
}

func (j *hashJoin) Next() (types.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			h, valid, err := hashKeys(j.cur, j.leftKeys)
			if err != nil {
				return nil, false, err
			}
			if valid {
				j.bucket = j.table[h]
			} else {
				j.bucket = nil
			}
			j.bi = 0
		}
		for j.bi < len(j.bucket) {
			r := j.bucket[j.bi]
			j.bi++
			// Verify key equality (hash collisions).
			match := true
			for k := range j.leftKeys {
				lv, err := j.leftKeys[k](j.cur)
				if err != nil {
					return nil, false, err
				}
				rv, err := j.rightKeys[k](r)
				if err != nil {
					return nil, false, err
				}
				if lv.IsNull() || rv.IsNull() || !types.Equal(lv, rv) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			out, ok, err := concatIf(&j.rows, j.cur, r, j.residual)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

func (j *hashJoin) Close() error {
	j.table = nil
	return j.left.Close()
}

// --- Sort-merge join ---

// mergeJoin performs a sort-merge equi-join on single key expressions
// from each side. Inputs are materialized and sorted on their keys;
// residual filters output tuples.
type mergeJoin struct {
	left, right       rel.Iterator
	leftKey, rightKey evalFunc
	residual          evalFunc
	schema            types.Schema

	lrows, rrows []types.Tuple
	lkeys, rkeys []types.Value
	li, rj       int
	// group state: matching right-run [rstart, rend) for current left key
	rstart, rend int
	gi           int
	rows         types.TupleAlloc
}

func newMergeJoin(left, right rel.Iterator, leftKey, rightKey evalFunc, residual evalFunc) *mergeJoin {
	return &mergeJoin{
		left: left, right: right,
		leftKey: leftKey, rightKey: rightKey, residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (j *mergeJoin) Schema() types.Schema { return j.schema }

func materializeKeyed(in rel.Iterator, key evalFunc) (_ []types.Tuple, _ []types.Value, err error) {
	if err := in.Open(); err != nil {
		return nil, nil, err
	}
	// Close on every path, including key-evaluation errors; an input
	// left open here used to leak the underlying cursor.
	defer func() {
		if cerr := in.Close(); err == nil {
			err = cerr
		}
	}()
	var rows []types.Tuple
	for {
		t, ok, err := in.Next()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			break
		}
		rows = append(rows, t)
	}
	if err := sortByKeys(rows, []evalFunc{key}, nil); err != nil {
		return nil, nil, err
	}
	keys := make([]types.Value, len(rows))
	for i, t := range rows {
		if keys[i], err = key(t); err != nil {
			return nil, nil, err
		}
	}
	return rows, keys, nil
}

func (j *mergeJoin) Open() error {
	var err error
	j.lrows, j.lkeys, err = materializeKeyed(j.left, j.leftKey)
	if err != nil {
		return err
	}
	j.rrows, j.rkeys, err = materializeKeyed(j.right, j.rightKey)
	if err != nil {
		return err
	}
	j.li, j.rj = 0, 0
	j.rstart, j.rend, j.gi = 0, 0, 0
	return nil
}

func (j *mergeJoin) Next() (types.Tuple, bool, error) {
	for {
		// Emit remaining pairs for the current left row's right-run.
		if j.gi < j.rend {
			l := j.lrows[j.li]
			r := j.rrows[j.gi]
			j.gi++
			out, ok, err := concatIf(&j.rows, l, r, j.residual)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
			continue
		}
		// Current left row exhausted its run; advance left.
		if j.rstart < j.rend {
			j.li++
			if j.li < len(j.lkeys) && types.Equal(j.lkeys[j.li], j.lkeys[j.li-1]) {
				j.gi = j.rstart // same key: reuse the run
				continue
			}
			j.rj = j.rend
			j.rstart, j.rend = 0, 0
			continue
		}
		// Find the next matching key runs.
		if j.li >= len(j.lkeys) || j.rj >= len(j.rkeys) {
			return nil, false, nil
		}
		lk, rk := j.lkeys[j.li], j.rkeys[j.rj]
		if lk.IsNull() {
			j.li++
			continue
		}
		if rk.IsNull() {
			j.rj++
			continue
		}
		c := types.Compare(lk, rk)
		switch {
		case c < 0:
			j.li++
		case c > 0:
			j.rj++
		default:
			j.rstart = j.rj
			j.rend = j.rj
			for j.rend < len(j.rkeys) && types.Equal(j.rkeys[j.rend], rk) {
				j.rend++
			}
			j.gi = j.rstart
		}
	}
}

func (j *mergeJoin) Close() error {
	j.lrows, j.rrows = nil, nil
	return nil
}

// --- Distinct ---

type distinctIter struct {
	in   rel.Iterator
	seen map[string]bool
}

func newDistinct(in rel.Iterator) *distinctIter { return &distinctIter{in: in} }

func (d *distinctIter) Schema() types.Schema { return d.in.Schema() }

func (d *distinctIter) Open() error {
	d.seen = map[string]bool{}
	return d.in.Open()
}

func (d *distinctIter) Next() (types.Tuple, bool, error) {
	for {
		t, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := canonicalKey(t)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return t, true, nil
	}
}

func (d *distinctIter) Close() error {
	d.seen = nil
	return d.in.Close()
}

// canonicalKey renders a tuple such that equal tuples (per
// types.Equal) yield equal keys.
func canonicalKey(t types.Tuple) string {
	buf := make([]byte, 0, 32)
	for _, v := range t {
		if v.IsNull() {
			buf = append(buf, 0, 'N')
		} else if v.Kind() == types.KindString {
			buf = append(buf, 's', ':')
			buf = append(buf, v.AsString()...)
		} else {
			buf = append(buf, 'n', ':')
			buf = append(buf, fmt.Sprintf("%v", v.AsFloat())...)
		}
		buf = append(buf, 0x1f)
	}
	return string(buf)
}

// --- Union ---

// unionIter concatenates two inputs with identical arity.
type unionIter struct {
	a, b   rel.Iterator
	onB    bool
	schema types.Schema
}

func newUnionAll(a, b rel.Iterator) *unionIter {
	return &unionIter{a: a, b: b, schema: a.Schema()}
}

func (u *unionIter) Schema() types.Schema { return u.schema }

func (u *unionIter) Open() error {
	u.onB = false
	if err := u.a.Open(); err != nil {
		return err
	}
	return u.b.Open()
}

func (u *unionIter) Next() (types.Tuple, bool, error) {
	if !u.onB {
		t, ok, err := u.a.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return t, true, nil
		}
		u.onB = true
	}
	return u.b.Next()
}

func (u *unionIter) Close() error {
	err1 := u.a.Close()
	err2 := u.b.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
