package engine

import (
	"fmt"
	"slices"

	"tango/internal/btree"
	"tango/internal/rel"
	"tango/internal/storage"
	"tango/internal/types"
	"tango/internal/xxl"
)

// --- Table reads ---

// tableRead is what every access path over one table shares: the
// table, the columns its rows carry, and their schema.
type tableRead struct {
	table *Table
	// cols lists the positions of the decoded columns, ascending; nil
	// decodes every column.
	cols   []int
	schema types.Schema // the decoded columns, named as the statement names them
}

// newTableRead reads columns cols of t, whose columns the statement
// names as in schema (t.Schema, qualified or not).
func newTableRead(t *Table, schema types.Schema, cols []int) tableRead {
	if cols != nil {
		schema = schema.Project(cols)
	}
	return tableRead{table: t, cols: cols, schema: schema}
}

func (r *tableRead) Schema() types.Schema { return r.schema }

// --- Heap scan ---

// heapScan streams all live tuples of a table page-at-a-time through
// the buffer pool: memory use is one page of decoded tuples, decoded
// into one arena each page reuses, and the pool's read accounting
// reflects the scan.
type heapScan struct {
	tableRead
	// where holds the conjuncts each page tests before decoding a row,
	// on the table's column positions (see push); nil tests none.
	where []types.Conjunct

	numPages int
	pageNo   int32
	buf      []types.Tuple // the current page's tuples
	rows     types.Arena   // their values and strings
	page     rel.Cursor
	opened   bool
}

func newHeapScan(r tableRead) *heapScan { return &heapScan{tableRead: r} }

func (s *heapScan) Open() error {
	// The scan covers exactly the pinned version's visibility bound:
	// pages appended by concurrent commits lie past it, and the tail
	// page is cut at the version's slot count.
	s.numPages = int(s.table.pages)
	s.pageNo = 0
	s.page.Reset(nil)
	s.opened = true
	return nil
}

// NextBatch fills dst with the rows of as many pages as it holds; the
// rows of the last page that do not fit are the next batch. The pages
// of a batch are decoded into the arena the batch before used.
func (s *heapScan) NextBatch(dst []types.Tuple) (int, error) {
	if !s.opened {
		return 0, fmt.Errorf("engine: scan not opened")
	}
	if n := s.page.Read(dst); n > 0 || int(s.pageNo) >= s.numPages {
		return n, nil
	}
	s.rows.Reset()
	n := 0
	for n < len(dst) && int(s.pageNo) < s.numPages {
		maxSlots := -1
		if int(s.pageNo) == s.numPages-1 {
			maxSlots = int(s.table.tailSlots)
		}
		var err error
		s.buf, err = s.table.Heap.PageTuples(s.pageNo, maxSlots, s.cols, s.buf[:0], &s.rows, s.where...)
		if err != nil {
			return 0, err
		}
		s.pageNo++
		k := copy(dst[n:], s.buf)
		n += k
		s.page.Reset(s.buf[k:])
	}
	return n, nil
}

func (s *heapScan) Close() error {
	s.buf = nil
	s.rows.Free()
	s.page.Reset(nil)
	return nil
}

// --- Index scan ---

// indexScan reads tuples via a secondary index in key order, optionally
// restricted to a key range.
type indexScan struct {
	tableRead
	col    string
	lo, hi types.Value
	hiIncl bool
	rids   []storage.RecordID
	pos    int
	rows   types.Arena // the current batch's values and strings
}

func newIndexScan(r tableRead, col string, lo, hi types.Value, hiIncl bool) *indexScan {
	return &indexScan{tableRead: r, col: col, lo: lo, hi: hi, hiIncl: hiIncl}
}

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

// NextBatch fetches the next entries' rows in key order, visiting a
// heap page once for each run of entries on it — the page changes the
// clustering factor counts.
func (s *indexScan) NextBatch(dst []types.Tuple) (int, error) {
	s.rows.Reset()
	n := 0
	for n < len(dst) && s.pos < len(s.rids) {
		run := samePage(s.rids[s.pos:min(len(s.rids), s.pos+len(dst)-n)])
		rows, err := s.table.Heap.Get(run, s.cols, dst[n:n], &s.rows)
		if err != nil {
			return 0, err
		}
		n += len(rows)
		s.pos += len(run)
	}
	return n, nil
}

// samePage returns the leading run of rids on rids[0]'s page.
func samePage(rids []storage.RecordID) []storage.RecordID {
	for i := 1; i < len(rids); i++ {
		if rids[i].Page != rids[0].Page {
			return rids[:i]
		}
	}
	return rids
}

func (s *indexScan) Close() error { s.rids = nil; s.rows.Free(); return nil }

// --- Project ---

type projectIter struct {
	in     rel.Input
	schema types.Schema
	exprs  []evalFunc
	rows   types.Arena // the last batch's output rows
}

func newProject(in rel.Iterator, schema types.Schema, exprs []evalFunc) *projectIter {
	return &projectIter{in: rel.In(in), schema: schema, exprs: exprs}
}

func (p *projectIter) Schema() types.Schema { return p.schema }
func (p *projectIter) Open() error          { return p.in.Open() }
func (p *projectIter) Close() error         { p.rows.Free(); return p.in.Close() }

// NextBatch pulls an input batch into dst and replaces each tuple by
// its projection, written over the last batch's.
func (p *projectIter) NextBatch(dst []types.Tuple) (int, error) {
	n, err := p.in.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	p.rows.Reset()
	for i, t := range dst[:n] {
		out := p.rows.Make(len(p.exprs))
		for k, e := range p.exprs {
			if out[k], err = e(t); err != nil {
				return 0, err
			}
		}
		dst[i] = out
	}
	return n, nil
}

// --- Sort ---

// sortKey is one ORDER BY key: column col of the input or, when expr is
// set, a value computed from the row.
type sortKey struct {
	col  int
	expr evalFunc
	desc bool
}

// newSort sorts in by keys through xxl's external sort, which is
// stable and spills past xxl.DefaultSortMemory rows. A computed key is
// evaluated into a trailing column by a projection below the sort, and
// a projection above the sort drops it again.
func newSort(in rel.Iterator, keys []sortKey) rel.Iterator {
	schema := in.Schema()
	cols := make([]int, len(keys))
	descs := make([]bool, len(keys))
	var wide []evalFunc // the input's columns, then the computed keys
	for i, k := range keys {
		cols[i], descs[i] = k.col, k.desc
		if k.expr == nil {
			continue
		}
		if wide == nil {
			for c := range schema.Cols {
				wide = append(wide, func(t types.Tuple) (types.Value, error) { return t[c], nil })
			}
		}
		cols[i] = len(wide)
		wide = append(wide, k.expr)
	}
	if wide == nil {
		return xxl.NewSortDesc(in, cols, descs)
	}
	// The key columns need no name or kind: only the sort reads them.
	ws := types.Schema{Cols: append(slices.Clone(schema.Cols), make([]types.Column, len(wide)-schema.Len())...)}
	sorted := xxl.NewSortDesc(newProject(in, ws, wide), cols, descs)
	return newProject(sorted, schema, wide[:schema.Len()])
}

// --- Joins ---

// joinOut is the output side every join shares: each output row is a
// join candidate l ++ r, built in a scratch row and, when the join's
// predicate holds, copied into the rows of the batch. The strings of
// its first deep columns are copied too: they come from an input row
// that the join's next pull may overwrite while this batch is still
// being filled. The other columns come from rows the join keeps.
type joinOut struct {
	deep int
	cand types.Tuple
	rows types.Arena // the batch's output rows
}

// concatIf builds the candidate l ++ r and returns its copy when pred
// (nil means always) holds.
func (o *joinOut) concatIf(l, r types.Tuple, pred evalFunc) (types.Tuple, bool, error) {
	o.cand = append(append(o.cand[:0], l...), r...)
	if pred != nil {
		v, err := pred(o.cand)
		if err != nil || v.IsNull() || !v.AsBool() {
			return nil, false, err
		}
	}
	out := o.rows.Make(len(o.cand))
	copy(out, o.cand)
	for i, v := range out[:o.deep] {
		out[i] = o.rows.Value(v)
	}
	return out, true, nil
}

// fill is a join's NextBatch: the last batch's rows are free again.
func (o *joinOut) fill(dst []types.Tuple, next func() (types.Tuple, bool, error)) (int, error) {
	o.rows.Reset()
	return rel.Fill(dst, next)
}

// --- Nested-loop join ---

// nlJoin is a block nested-loop join: the right input is materialized
// once, the left input streams; pred (may be nil) filters the
// concatenated tuple.
type nlJoin struct {
	left   *rel.Reader
	right  rel.Input
	pred   evalFunc
	schema types.Schema
	inner  types.Arena // the right input's rows
	cur    types.Tuple
	ri     int
	out    joinOut
}

func newNLJoin(left, right rel.Iterator, pred evalFunc) *nlJoin {
	return &nlJoin{
		left: rel.NewReader(left), right: rel.In(right), pred: pred,
		schema: left.Schema().Concat(right.Schema()),
		out:    joinOut{deep: left.Schema().Len()},
	}
}

func (j *nlJoin) Schema() types.Schema { return j.schema }

func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	j.inner.Reset()
	j.cur = nil
	return rel.Each(&j.right, func(t types.Tuple) error {
		j.inner.Keep(t)
		return nil
	})
}

func (j *nlJoin) NextBatch(dst []types.Tuple) (int, error) { return j.out.fill(dst, j.next) }

func (j *nlJoin) next() (types.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			j.ri = 0
		}
		for inner := j.inner.Rows(); j.ri < len(inner); {
			r := inner[j.ri]
			j.ri++
			out, ok, err := j.out.concatIf(j.cur, r, j.pred)
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
	j.inner.Free()
	j.out.rows.Free()
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// --- Index nested-loop join ---

// indexNLJoin probes an index on the inner table for each outer tuple.
// The join must be an equality on outerKey = inner indexed column;
// residual (may be nil) filters the concatenated tuple.
type indexNLJoin struct {
	outer    *rel.Reader
	inner    tableRead
	innerCol string // indexed column (unqualified)
	outerKey evalFunc
	residual evalFunc
	schema   types.Schema

	cur     types.Tuple
	matches []types.Tuple
	mrows   types.Arena // the matches' values and strings
	mi      int
	out     joinOut
}

func newIndexNLJoin(outer rel.Iterator, inner tableRead, innerCol string, outerKey evalFunc, residual evalFunc) *indexNLJoin {
	schema := outer.Schema().Concat(inner.schema)
	return &indexNLJoin{
		outer: rel.NewReader(outer), inner: inner, innerCol: innerCol,
		outerKey: outerKey, residual: residual, schema: schema,
		out: joinOut{deep: schema.Len()}, // an outer row's matches go with it
	}
}

func (j *indexNLJoin) Schema() types.Schema { return j.schema }

func (j *indexNLJoin) Open() error {
	if j.inner.table.Index(j.innerCol) == nil {
		return fmt.Errorf("engine: no index on %s.%s", j.inner.table.Name, j.innerCol)
	}
	j.cur = nil
	return j.outer.Open()
}

func (j *indexNLJoin) NextBatch(dst []types.Tuple) (int, error) { return j.out.fill(dst, j.next) }

func (j *indexNLJoin) next() (types.Tuple, bool, error) {
	inner := j.inner.table
	idx := inner.Index(j.innerCol)
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
			j.mrows.Reset() // the output rows copied what they took of the last matches
			if !key.IsNull() {
				rids := slices.DeleteFunc(idx.Lookup(key), func(rid storage.RecordID) bool { return !inner.visible(rid) })
				for len(rids) > 0 {
					run := samePage(rids)
					if j.matches, err = inner.Heap.Get(run, j.inner.cols, j.matches, &j.mrows); err != nil {
						return nil, false, err
					}
					rids = rids[len(run):]
				}
			}
			j.mi = 0
		}
		for j.mi < len(j.matches) {
			r := j.matches[j.mi]
			j.mi++
			out, ok, err := j.out.concatIf(j.cur, r, j.residual)
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

func (j *indexNLJoin) Close() error {
	j.matches = nil
	j.mrows.Free()
	j.out.rows.Free()
	return j.outer.Close()
}

// --- Hash join ---

// hashJoin builds a key table on the right input, its rows copied
// into the join's arena and grouped by key id into contiguous runs,
// and probes with the left; residual (may be nil) filters concatenated
// tuples. A probe row's key is evaluated and looked up once, and its
// run walked in input order.
type hashJoin struct {
	left                *rel.Reader
	right               rel.Input
	leftKeys, rightKeys []evalFunc
	residual            evalFunc
	schema              types.Schema

	keys   types.KeyTable
	rows   []types.Tuple // the build rows, in one run per key id
	bounds []int32       // the run of id is rows[bounds[id]:bounds[id+1]]
	ids    []int32       // while building: each row's key id
	build  types.Arena   // the build rows, kept: rows is its Rows
	cur    types.Tuple
	probe  types.Tuple   // cur's key values; a build row's while building
	run    []types.Tuple // cur's build rows not yet joined
	out    joinOut
}

func newHashJoin(left, right rel.Iterator, leftKeys, rightKeys []evalFunc, residual evalFunc) *hashJoin {
	return &hashJoin{
		left: rel.NewReader(left), right: rel.In(right),
		leftKeys: leftKeys, rightKeys: rightKeys, residual: residual,
		schema: left.Schema().Concat(right.Schema()),
		out:    joinOut{deep: left.Schema().Len()},
	}
}

func (j *hashJoin) Schema() types.Schema { return j.schema }

// evalKeys evaluates keys over t into key, reporting whether one is
// NULL: a NULL key never joins, but groups.
func evalKeys(t types.Tuple, keys []evalFunc, key types.Tuple) (null bool, err error) {
	for i, k := range keys {
		if key[i], err = k(t); err != nil {
			return false, err
		}
		null = null || key[i].IsNull()
	}
	return null, nil
}

func (j *hashJoin) Open() error {
	j.keys.Reset(len(j.rightKeys))
	j.build.Reset()
	j.ids = j.ids[:0]
	j.probe = make(types.Tuple, max(len(j.leftKeys), len(j.rightKeys)))
	if err := rel.Each(&j.right, func(t types.Tuple) error {
		null, err := evalKeys(t, j.rightKeys, j.probe)
		if !null && err == nil {
			id, _ := j.keys.Insert(j.probe)
			j.ids = append(j.ids, int32(id))
			j.build.Keep(t)
		}
		return err
	}); err != nil {
		return err
	}
	j.rows = j.build.Rows()
	j.groupRuns()
	j.cur, j.run = nil, nil
	j.probe = j.probe[:len(j.leftKeys)]
	return j.left.Open()
}

// groupRuns reorders the build rows in place, by one counting pass over
// their key ids, into one run per id in id order, each in input order.
func (j *hashJoin) groupRuns() {
	bounds := append(j.bounds[:0], make([]int32, j.keys.Len()+1)...)
	for _, id := range j.ids {
		bounds[id]++
	}
	for id := 1; id < len(bounds); id++ {
		bounds[id] += bounds[id-1]
	}
	dest := j.ids // each row's place, filling each run from its end
	for i := len(dest) - 1; i >= 0; i-- {
		id := dest[i]
		bounds[id]--
		dest[i] = bounds[id]
	}
	for i := range j.rows {
		for d := dest[i]; d != int32(i); d = dest[i] {
			j.rows[i], j.rows[d] = j.rows[d], j.rows[i]
			dest[i], dest[d] = dest[d], d
		}
	}
	j.bounds = bounds
}

func (j *hashJoin) NextBatch(dst []types.Tuple) (int, error) { return j.out.fill(dst, j.next) }

func (j *hashJoin) next() (types.Tuple, bool, error) {
	for {
		if j.cur == nil {
			t, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.cur = t
			null, err := evalKeys(j.cur, j.leftKeys, j.probe)
			if err != nil {
				return nil, false, err
			}
			j.run = nil
			if !null {
				if id := j.keys.Find(j.probe); id >= 0 {
					j.run = j.rows[j.bounds[id]:j.bounds[id+1]]
				}
			}
		}
		for len(j.run) > 0 {
			r := j.run[0]
			j.run = j.run[1:]
			out, ok, err := j.out.concatIf(j.cur, r, j.residual)
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
	j.keys.Free()
	j.rows, j.bounds, j.ids, j.run = nil, nil, nil, nil
	j.build.Free()
	j.out.rows.Free()
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// --- Sort-merge join ---

// newMergeJoin sorts both inputs on their key columns and merge-joins
// them with xxl's operators; residual (may be nil) filters the joined
// rows.
func newMergeJoin(left, right rel.Iterator, lkeys, rkeys []int, residual evalFunc) rel.Iterator {
	var it rel.Iterator = xxl.NewMergeJoin(xxl.NewSort(left, lkeys), xxl.NewSort(right, rkeys), lkeys, rkeys)
	if residual != nil {
		it = xxl.NewFilterFunc(it, residual)
	}
	return it
}

// --- Union ---

// unionIter concatenates two inputs with identical arity.
type unionIter struct {
	a, b   rel.Input
	onB    bool
	schema types.Schema
}

func newUnionAll(a, b rel.Iterator) *unionIter {
	return &unionIter{a: rel.In(a), b: rel.In(b), schema: a.Schema()}
}

func (u *unionIter) Schema() types.Schema { return u.schema }

func (u *unionIter) Open() error {
	u.onB = false
	if err := u.a.Open(); err != nil {
		return err
	}
	return u.b.Open()
}

func (u *unionIter) NextBatch(dst []types.Tuple) (int, error) {
	if !u.onB {
		if n, err := u.a.NextBatch(dst); err != nil || n > 0 {
			return n, err
		}
		u.onB = true
	}
	return u.b.NextBatch(dst)
}

func (u *unionIter) Close() error {
	err1 := u.a.Close()
	err2 := u.b.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
