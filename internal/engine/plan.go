package engine

import (
	"fmt"
	"strings"

	"tango/internal/meta"
	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/xxl"
)

// instrument wraps a physical operator with telemetry when a metrics
// registry is attached (see DB.SetMetrics); inputs that are themselves
// instrumented become children in the stats tree. Without a registry
// the iterator is returned untouched, so the hot path pays nothing.
func (db *DB) instrument(op string, it rel.Iterator, inputs ...rel.Iterator) rel.Iterator {
	reg := db.metrics.Load()
	if reg == nil {
		return it
	}
	w := telemetry.Instrument(op, nil, it, inputs...)
	w.Sink = telemetry.SinkTo(reg, "dbms")
	return w
}

// asHeapScan sees through instrumentation wrappers to the concrete
// heap scan (used by index-scan and index-nested-loop rewrites).
func asHeapScan(it rel.Iterator) (*heapScan, bool) {
	hs, ok := unwrap(it).(*heapScan)
	return hs, ok
}

// unwrap sees through an instrumentation wrapper.
func unwrap(it rel.Iterator) rel.Iterator {
	if w, ok := it.(interface{ Unwrap() rel.Iterator }); ok {
		return w.Unwrap()
	}
	return it
}

// asTableRead returns the table read of a heap or index scan, or nil.
func asTableRead(it rel.Iterator) *tableRead {
	switch s := unwrap(it).(type) {
	case *heapScan:
		return &s.tableRead
	case *indexScan:
		return &s.tableRead
	}
	return nil
}

// planSelect builds an iterator tree for a SELECT statement against
// one pinned catalog version, including any UNION chain and the
// trailing ORDER BY. Table resolution, index choice, and visibility
// bounds all come from v, so the plan reads one consistent snapshot.
// Its scans decode only the columns the statement can reference (see
// planSources). A statement that fails to plan so is planned again
// without pruning and gets that plan or error, so pruning never changes
// whether a statement plans, nor the error — down to the columns it
// lists — with which it fails.
func (db *DB) planSelect(v *catalogVersion, s *sqlast.SelectStmt) (rel.Iterator, error) {
	if it, err := db.planQuery(v, s, true); err == nil {
		return it, nil
	}
	return db.planQuery(v, s, false)
}

// planQuery is planSelect with column pruning on or off.
func (db *DB) planQuery(v *catalogVersion, s *sqlast.SelectStmt, prune bool) (rel.Iterator, error) {
	it, err := db.planCore(v, s, prune)
	if err != nil {
		return nil, err
	}
	// UNION chain.
	if s.Union != nil {
		right, err := db.planQuery(v, &sqlast.SelectStmt{
			Hint: s.Union.Hint, Distinct: s.Union.Distinct, Items: s.Union.Items,
			From: s.Union.From, Where: s.Union.Where, GroupBy: s.Union.GroupBy,
			Having: s.Union.Having, Union: s.Union.Union, UnionAll: s.Union.UnionAll,
		}, prune)
		if err != nil {
			return nil, err
		}
		if it.Schema().Len() != right.Schema().Len() {
			return nil, fmt.Errorf("engine: UNION arity mismatch: %d vs %d",
				it.Schema().Len(), right.Schema().Len())
		}
		u := db.instrument("union", newUnionAll(it, right), it, right)
		if s.UnionAll {
			it = u
		} else {
			it = db.instrument("distinct", xxl.NewDupElim(u), u)
		}
	}
	// ORDER BY applies to the whole result.
	if len(s.OrderBy) > 0 {
		keys, err := orderKeys(it.Schema(), s.OrderBy)
		if err != nil {
			return nil, err
		}
		it = db.instrument("sort", newSort(it, keys), it)
	}
	if s.Limit > 0 {
		it = db.instrument("limit", &limitIter{in: rel.In(it), n: s.Limit}, it)
	}
	return it, nil
}

// limitIter caps the result at n rows.
type limitIter struct {
	in   rel.Input
	n    int64
	seen int64
}

func (l *limitIter) Schema() types.Schema { return l.in.Schema() }
func (l *limitIter) Open() error          { l.seen = 0; return l.in.Open() }
func (l *limitIter) Close() error         { return l.in.Close() }

func (l *limitIter) NextBatch(dst []types.Tuple) (int, error) {
	if l.seen >= l.n {
		return 0, nil
	}
	if rest := l.n - l.seen; int64(len(dst)) > rest {
		dst = dst[:rest]
	}
	n, err := l.in.NextBatch(dst)
	l.seen += int64(n)
	return n, err
}

// orderKeys resolves the ORDER BY keys over the result's schema: a key
// naming an output column sorts by it, and any other is compiled.
func orderKeys(schema types.Schema, order []sqlast.OrderItem) ([]sortKey, error) {
	keys := make([]sortKey, len(order))
	for i, o := range order {
		keys[i].desc = o.Desc
		if cr, ok := o.Expr.(sqlast.ColumnRef); ok {
			// The projection strips qualifiers, so "ORDER BY P.PosID"
			// over an output column PosID needs a dequalified retry.
			c := schema.ColumnIndex(cr.String())
			if c < 0 {
				c = schema.ColumnIndex(cr.Name)
			}
			if c >= 0 {
				keys[i].col = c
				continue
			}
		}
		k, err := compileExpr(o.Expr, schema)
		if err != nil {
			k2, err2 := compileExpr(stripQualifiers(o.Expr), schema)
			if err2 != nil {
				return nil, err
			}
			k = k2
		}
		keys[i].expr = k
	}
	return keys, nil
}

// stripQualifiers removes table qualifiers from every column reference
// in the expression.
func stripQualifiers(e sqlast.Expr) sqlast.Expr {
	switch x := e.(type) {
	case sqlast.ColumnRef:
		return sqlast.ColumnRef{Name: x.Name}
	case sqlast.BinaryExpr:
		return sqlast.BinaryExpr{Op: x.Op, Left: stripQualifiers(x.Left), Right: stripQualifiers(x.Right)}
	case sqlast.UnaryExpr:
		return sqlast.UnaryExpr{Op: x.Op, Operand: stripQualifiers(x.Operand)}
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = stripQualifiers(a)
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}
	case sqlast.Between:
		return sqlast.Between{Expr: stripQualifiers(x.Expr), Lo: stripQualifiers(x.Lo), Hi: stripQualifiers(x.Hi), Not: x.Not}
	case sqlast.IsNull:
		return sqlast.IsNull{Expr: stripQualifiers(x.Expr), Not: x.Not}
	default:
		return e
	}
}

// planCore plans one SELECT block (no UNION, no ORDER BY).
func (db *DB) planCore(v *catalogVersion, s *sqlast.SelectStmt, prune bool) (rel.Iterator, error) {
	// 1. FROM sources.
	sources, err := db.planSources(v, s, prune)
	if err != nil {
		return nil, err
	}

	conjuncts := sqlast.Conjuncts(s.Where)
	used := make([]bool, len(conjuncts))

	// 2. Push single-source predicates down.
	for si := range sources {
		var pushed []sqlast.Expr
		for ci, c := range conjuncts {
			if used[ci] {
				continue
			}
			if refersOnly(c, sources[si].Schema()) && !resolvesElsewhere(c, sources, si) {
				pushed = append(pushed, c)
				used[ci] = true
			}
		}
		if len(pushed) > 0 {
			src, err := db.applySelection(sources[si], pushed)
			if err != nil {
				return nil, err
			}
			sources[si] = src
		}
	}

	// 3. Join left-deep in FROM order.
	it := sources[0]
	for si := 1; si < len(sources); si++ {
		joined, err := db.join(s.Hint, it, sources[si], conjuncts, used)
		if err != nil {
			return nil, err
		}
		it = joined
	}

	// 4. Remaining predicates.
	var rest []sqlast.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			rest = append(rest, c)
		}
	}
	if len(rest) > 0 {
		pred, err := compileExpr(sqlast.AndAll(rest), it.Schema())
		if err != nil {
			return nil, err
		}
		it = db.instrument("filter", xxl.NewFilterFunc(it, pred), it)
	}

	// 5. Aggregation.
	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, item := range s.Items {
		if sqlast.HasAggregate(item.Expr) {
			hasAgg = true
		}
	}
	var (
		itemExprs []evalFunc
		outSchema types.Schema
		picks     []int
	)
	if hasAgg {
		grouped, gCtx, err := db.planGroup(it, s)
		if err != nil {
			return nil, err
		}
		it = db.instrument("group", grouped, it)
		// HAVING.
		if s.Having != nil {
			pred, err := gCtx.compile(s.Having)
			if err != nil {
				return nil, err
			}
			it = db.instrument("filter", xxl.NewFilterFunc(it, pred), it)
		}
		outSchema, itemExprs, err = gCtx.projectItems(s.Items)
		if err != nil {
			return nil, err
		}
	} else {
		outSchema, itemExprs, picks, err = planProjection(s.Items, it.Schema())
		if err != nil {
			return nil, err
		}
	}
	if tr := asTableRead(it); tr != nil && identity(picks, tr.schema.Len()) {
		// The select list picks every column the scan decodes, in order:
		// the scan's rows are the result's, under the select list's names.
		tr.schema = outSchema
	} else {
		it = db.instrument("project", newProject(it, outSchema, itemExprs), it)
	}

	// 6. DISTINCT.
	if s.Distinct {
		it = db.instrument("distinct", xxl.NewDupElim(it), it)
	}
	return it, nil
}

// planSources builds one iterator per FROM entry; schemas are
// qualified by alias (or table name). When pruning, a source produces
// only the columns the block can reference: a base table's scan decodes
// just those, and a derived table drops the select items that feed
// none.
func (db *DB) planSources(v *catalogVersion, s *sqlast.SelectStmt, prune bool) ([]rel.Iterator, error) {
	if len(s.From) == 0 {
		// "SELECT expr" with no FROM: one empty row.
		return []rel.Iterator{&dualIter{}}, nil
	}
	refs := colRefs{star: true} // every column
	if prune {
		refs = blockRefs(s)
	}
	sources := make([]rel.Iterator, len(s.From))
	for i, ref := range s.From {
		switch r := ref.(type) {
		case sqlast.TableName:
			t, err := v.table(r.Name)
			if err != nil {
				return nil, err
			}
			q := r.Alias
			if q == "" {
				q = r.Name
			}
			schema := t.Schema.Qualify(q)
			scan := newHeapScan(newTableRead(t, schema, refs.need(schema)))
			sources[i] = db.instrument("scan("+t.Name+")", scan)
		case sqlast.Derived:
			sel := pruneDerived(r, refs)
			if sel != r.Select {
				// The dropped items are never evaluated, but a block that
				// fails to plan whole must still fail: plan it so, unpruned,
				// and discard the plan.
				if _, err := db.planQuery(v, r.Select, false); err != nil {
					return nil, err
				}
			}
			sub, err := db.planQuery(v, sel, prune)
			if err != nil {
				return nil, err
			}
			rn := &renameIter{in: rel.In(sub), schema: sub.Schema().Unqualified().Qualify(r.Alias)}
			sources[i] = db.instrument("derived("+r.Alias+")", rn, sub)
		default:
			return nil, fmt.Errorf("engine: unsupported FROM entry %T", ref)
		}
	}
	return sources, nil
}

// colRefs is what a SELECT block can reference in its FROM sources.
type colRefs struct {
	// names are the column references in the select list, WHERE, GROUP
	// BY, HAVING and ORDER BY (whose aggregates are computed from the
	// sources), spelled as compileExpr resolves them.
	names  []string
	star   bool     // a * item: every column of every source
	tables []string // the qualifiers of tab.* items
}

// blockRefs collects what block s can reference in its sources.
func blockRefs(s *sqlast.SelectStmt) colRefs {
	var r colRefs
	for _, item := range s.Items {
		switch x := item.Expr.(type) {
		case sqlast.Star:
			r.star = true
		case sqlast.ColumnRef:
			if x.Name == "*" {
				r.tables = append(r.tables, x.Table)
			}
		}
		r.names = append(r.names, exprColumns(item.Expr)...)
	}
	r.names = append(r.names, exprColumns(s.Where)...)
	for _, g := range s.GroupBy {
		r.names = append(r.names, exprColumns(g)...)
	}
	r.names = append(r.names, exprColumns(s.Having)...)
	for _, o := range s.OrderBy {
		r.names = append(r.names, exprColumns(o.Expr)...)
	}
	return r
}

// need returns the positions, ascending, of the columns of a source
// with the given schema that the references resolve to — through
// ColumnIndex, the rule compileExpr uses — or nil when that is all of
// them. A reference resolving in several sources keeps its column in
// each, so every schema the planner resolves against (one source, a
// join's two sides, all of them) keeps the column it would pick among
// every column, and picks it again.
func (r colRefs) need(schema types.Schema) []int {
	if r.star {
		return nil
	}
	keep := make([]bool, schema.Len())
	for _, name := range r.names {
		if i := schema.ColumnIndex(name); i >= 0 {
			keep[i] = true
		}
	}
	for i, c := range schema.Cols {
		for _, tab := range r.tables {
			if starCovers(tab, c.Name) {
				keep[i] = true
			}
		}
	}
	cols := make([]int, 0, schema.Len())
	for i, k := range keep {
		if k {
			cols = append(cols, i)
		}
	}
	if len(cols) == schema.Len() {
		return nil
	}
	return cols
}

// starCovers reports whether tab.* covers the column.
func starCovers(tab, column string) bool {
	return strings.HasPrefix(strings.ToUpper(column), strings.ToUpper(tab)+".")
}

// pruneDerived returns d's SELECT without the items the outer block's
// references r cannot reach. Kept items keep their output names (a
// positional COLn name becomes an alias), and at least one is kept so
// the row count holds. A block whose rows or names depend on every item
// is returned whole: DISTINCT, a UNION, a * item, an ORDER BY (it
// resolves against the items by name), or a grand aggregate (an
// aggregate item, no GROUP BY or HAVING), which dropping its aggregates
// would turn into a plain SELECT.
func pruneDerived(d sqlast.Derived, r colRefs) *sqlast.SelectStmt {
	s := d.Select
	if s.Distinct || s.Union != nil || len(s.OrderBy) > 0 {
		return s
	}
	grouped := len(s.GroupBy) > 0 || s.Having != nil
	out := types.Schema{Cols: make([]types.Column, len(s.Items))}
	for i, item := range s.Items {
		switch x := item.Expr.(type) {
		case sqlast.Star:
			return s
		case sqlast.ColumnRef:
			if x.Name == "*" {
				return s
			}
		}
		if !grouped && sqlast.HasAggregate(item.Expr) {
			return s
		}
		out.Cols[i].Name = outputName(item, i)
	}
	keep := r.need(out.Qualify(d.Alias))
	if keep == nil {
		return s
	}
	if len(keep) == 0 {
		keep = []int{0}
	}
	pruned := *s
	pruned.Items = make([]sqlast.SelectItem, len(keep))
	for k, i := range keep {
		pruned.Items[k] = sqlast.SelectItem{Expr: s.Items[i].Expr, Alias: out.Cols[i].Name}
	}
	return &pruned
}

// resolvesElsewhere reports whether e's columns could also all resolve
// against a different source (ambiguity guard for unqualified names).
func resolvesElsewhere(e sqlast.Expr, sources []rel.Iterator, self int) bool {
	for i, src := range sources {
		if i == self {
			continue
		}
		if refersOnly(e, src.Schema()) {
			return true
		}
	}
	return false
}

// applySelection applies predicates to a source. A plain table scan
// reads by an index range scan when accessPath prefers one; otherwise
// its pages test every "column op literal" conjunct before decoding a
// row (heapScan.push). Only the conjuncts left are filtered.
func (db *DB) applySelection(src rel.Iterator, preds []sqlast.Expr) (rel.Iterator, error) {
	if hs, ok := asHeapScan(src); ok {
		if it, rest, ok2 := accessPath(hs, preds); ok2 {
			preds = rest
			src = db.instrument("indexscan("+hs.table.Name+")", it)
		} else {
			preds = hs.push(preds)
		}
	}
	if len(preds) == 0 {
		return src, nil
	}
	pred, err := compileExpr(sqlast.AndAll(preds), src.Schema())
	if err != nil {
		return nil, err
	}
	return db.instrument("filter", xxl.NewFilterFunc(src, pred), src), nil
}

// colLiteral recognises a conjunct "column op literal" whose literal is
// not NULL, either side, and returns it with the column on the left of
// op.
func colLiteral(p sqlast.Expr) (cr sqlast.ColumnRef, op sqlast.BinaryOp, lit types.Value, ok bool) {
	b, ok := p.(sqlast.BinaryExpr)
	if !ok {
		return cr, op, lit, false
	}
	cr, okC := b.Left.(sqlast.ColumnRef)
	l, okL := b.Right.(sqlast.Literal)
	op = b.Op
	if !okC || !okL {
		cr, okC = b.Right.(sqlast.ColumnRef)
		l, okL = b.Left.(sqlast.Literal)
		op = flipOp(b.Op)
	}
	return cr, op, l.Value, okC && okL && !l.Value.IsNull()
}

// outcomes holds, for each comparison operator, the Compare outcomes
// under which "value op literal" holds.
var outcomes = map[sqlast.BinaryOp]types.Outcomes{
	sqlast.OpEq: types.Equals, sqlast.OpNe: types.Below | types.Above,
	sqlast.OpLt: types.Below, sqlast.OpLe: types.Below | types.Equals,
	sqlast.OpGt: types.Above, sqlast.OpGe: types.Above | types.Equals,
}

// push hands every conjunct "column op literal" on one of the scan's
// columns to the scan, which tests them on each page's column words
// before decoding the passing rows (types.DecodeBlock), and returns the
// conjuncts left. A pushed conjunct holds for exactly the rows its
// compiled form (eval) passes, and never fails at run time.
func (s *heapScan) push(preds []sqlast.Expr) []sqlast.Expr {
	var rest []sqlast.Expr
	for _, p := range preds {
		cr, op, lit, ok := colLiteral(p)
		k := s.schema.ColumnIndex(cr.String())
		if !ok || outcomes[op] == 0 || k < 0 {
			rest = append(rest, p)
			continue
		}
		if s.cols != nil {
			k = s.cols[k]
		}
		s.where = append(s.where, types.Conjunct{Col: k, Lit: lit, Pass: outcomes[op]})
	}
	return rest
}

// indexRange is a conjunct "indexed column op literal" that an index
// range scan can answer, with the column on the left of op.
type indexRange struct {
	pred int // its position among the conjuncts
	col  string
	op   sqlast.BinaryOp
	lit  types.Value
}

// indexRanges gathers, in order, every conjunct an index range scan on
// t can answer. A NULL literal is never one: "K = NULL" holds for no
// row, while a NULL range bound would mean "unbounded".
func indexRanges(t *Table, preds []sqlast.Expr) []indexRange {
	var out []indexRange
	for i, p := range preds {
		cr, op, lit, ok := colLiteral(p)
		if !ok || t.Index(cr.Name) == nil {
			continue
		}
		switch op {
		case sqlast.OpEq, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
			out = append(out, indexRange{pred: i, col: cr.Name, op: op, lit: lit})
		}
	}
	return out
}

// rowsPerVisit is how many rows a scan decodes in the time one heap
// page visit takes (pin, latch, block header). Access paths are costed
// in page visits plus rows decoded over rowsPerVisit: a heap scan
// visits every page and decodes every row, an index range scan visits
// a page per clustering-factor step in its range and decodes only the
// range's rows. BenchmarkEngineScan's range-sel sweep measures where
// the two paths cross; this value puts the estimate there.
const rowsPerVisit = 8

// cost estimates an index range scan for r: the range's selectivity
// times the page changes of a walk over the whole index (the column's
// clustering factor) and the table's rows, from ANALYZE statistics; ok
// is false without them (never analyzed, or indexed since).
func (r indexRange) cost(ts *meta.TableStats) (cost float64, ok bool) {
	cs := ts.Column(r.col)
	if cs == nil || !cs.HasIndex {
		return 0, false
	}
	var sel float64
	switch r.op {
	case sqlast.OpEq:
		sel = 1 / float64(max(cs.Distinct, 1))
	case sqlast.OpLt, sqlast.OpLe:
		sel = cs.FractionBelow(r.lit.AsFloat())
	default: // OpGt, OpGe
		sel = 1 - cs.FractionBelow(r.lit.AsFloat())
	}
	return sel * (float64(cs.ClusteringFactor) + float64(ts.Cardinality)/rowsPerVisit), true
}

// scan returns the index range scan for r over hs's table and the
// conjuncts left to filter.
func (r indexRange) scan(hs *heapScan, preds []sqlast.Expr) (rel.Iterator, []sqlast.Expr) {
	var lo, hi types.Value
	hiIncl := true
	switch r.op {
	case sqlast.OpEq:
		lo, hi = r.lit, r.lit
	case sqlast.OpLt:
		hi, hiIncl = r.lit, false
	case sqlast.OpLe:
		hi = r.lit
	default: // OpGt, OpGe
		lo = r.lit
	}
	rest := make([]sqlast.Expr, 0, len(preds))
	rest = append(rest, preds[:r.pred]...)
	rest = append(rest, preds[r.pred+1:]...)
	if r.op == sqlast.OpGt {
		// The scan's lower bound is inclusive; the conjunct stays as a
		// residual filter for exclusivity.
		rest = append(rest, preds[r.pred])
	}
	return newIndexScan(hs.tableRead, r.col, lo, hi, hiIncl), rest
}

// accessPath chooses how hs's table is read under the conjuncts preds:
// by the heap scan itself (ok false) or by an index range scan on one
// conjunct, returned with the conjuncts left to filter. With statistics
// for every candidate conjunct the cheapest path wins: a heap scan
// costs the version's pages and its rows (see rowsPerVisit), an index
// range scan its indexRange.cost. Without them the planner keeps its
// rule-based choice, the first candidate.
func accessPath(hs *heapScan, preds []sqlast.Expr) (rel.Iterator, []sqlast.Expr, bool) {
	cands := indexRanges(hs.table, preds)
	ts := hs.table.Stats
	pick, cheapest := -1, 0.0
	if ts != nil {
		cheapest = float64(hs.table.pages) + float64(ts.Cardinality)/rowsPerVisit
	}
	for i, r := range cands {
		cost, ok := r.cost(ts)
		if !ok {
			pick = 0
			break
		}
		if cost < cheapest {
			pick, cheapest = i, cost
		}
	}
	if pick < 0 {
		return nil, preds, false
	}
	it, rest := cands[pick].scan(hs, preds)
	return it, rest, true
}

func flipOp(op sqlast.BinaryOp) sqlast.BinaryOp {
	switch op {
	case sqlast.OpLt:
		return sqlast.OpGt
	case sqlast.OpLe:
		return sqlast.OpGe
	case sqlast.OpGt:
		return sqlast.OpLt
	case sqlast.OpGe:
		return sqlast.OpLe
	}
	return op
}

// join combines the current tree with the next source, consuming
// applicable conjuncts. The method follows the statement hint, else
// hash join for equi-joins and block nested loop otherwise.
func (db *DB) join(hint sqlast.JoinHint, left, right rel.Iterator, conjuncts []sqlast.Expr, used []bool) (rel.Iterator, error) {
	combined := left.Schema().Concat(right.Schema())
	// Applicable: unresolved so far, resolves on the combined schema.
	var applicable []int
	for ci, c := range conjuncts {
		if !used[ci] && refersOnly(c, combined) {
			applicable = append(applicable, ci)
		}
	}
	// Equi pairs: left expr from left schema, right expr from right.
	type equi struct{ l, r sqlast.Expr }
	var equis []equi
	var equiIdx []int
	var residualIdx []int
	for _, ci := range applicable {
		b, ok := conjuncts[ci].(sqlast.BinaryExpr)
		if ok && b.Op == sqlast.OpEq {
			switch {
			case refersOnly(b.Left, left.Schema()) && refersOnly(b.Right, right.Schema()):
				equis = append(equis, equi{b.Left, b.Right})
				equiIdx = append(equiIdx, ci)
				continue
			case refersOnly(b.Right, left.Schema()) && refersOnly(b.Left, right.Schema()):
				equis = append(equis, equi{b.Right, b.Left})
				equiIdx = append(equiIdx, ci)
				continue
			}
		}
		residualIdx = append(residualIdx, ci)
	}

	compileResidual := func(idx []int) (evalFunc, error) {
		if len(idx) == 0 {
			return nil, nil
		}
		var es []sqlast.Expr
		for _, ci := range idx {
			es = append(es, conjuncts[ci])
		}
		return compileExpr(sqlast.AndAll(es), combined)
	}

	markUsed := func(idx ...[]int) {
		for _, list := range idx {
			for _, ci := range list {
				used[ci] = true
			}
		}
	}

	switch hint {
	case sqlast.HintNestedLoop:
		// Index nested loop when the inner (right) side is a base-table
		// scan with an index on an equi-join column, and no conjuncts
		// of its own: the index probes would not test them.
		if hs, ok := asHeapScan(right); ok && hs.where == nil {
			for ei, e := range equis {
				cr, okCR := e.r.(sqlast.ColumnRef)
				if !okCR || hs.table.Index(cr.Name) == nil {
					continue
				}
				outerKey, err := compileExpr(e.l, left.Schema())
				if err != nil {
					return nil, err
				}
				// Other equis plus residuals become the residual filter.
				var others []int
				for k, ci := range equiIdx {
					if k != ei {
						others = append(others, ci)
					}
				}
				others = append(others, residualIdx...)
				residual, err := compileResidual(others)
				if err != nil {
					return nil, err
				}
				markUsed(equiIdx, residualIdx)
				inl := newIndexNLJoin(left, hs.tableRead, cr.Name, outerKey, residual)
				return db.instrument("indexnljoin", inl, left), nil
			}
		}

	case sqlast.HintMerge:
		// Sort-merge on the column equi-keys; the other equalities
		// join the residual filter.
		var lks, rks, others []int
		for k, e := range equis {
			l, r := colIndex(e.l, left.Schema()), colIndex(e.r, right.Schema())
			if l < 0 || r < 0 {
				others = append(others, equiIdx[k])
				continue
			}
			lks, rks = append(lks, l), append(rks, r)
		}
		if len(lks) > 0 {
			residual, err := compileResidual(append(others, residualIdx...))
			if err != nil {
				return nil, err
			}
			markUsed(equiIdx, residualIdx)
			return db.instrument("mergejoin", newMergeJoin(left, right, lks, rks, residual), left, right), nil
		}

	default: // HintHash or no hint
		if len(equis) > 0 {
			var lks, rks []evalFunc
			for _, e := range equis {
				lk, err := compileExpr(e.l, left.Schema())
				if err != nil {
					return nil, err
				}
				rk, err := compileExpr(e.r, right.Schema())
				if err != nil {
					return nil, err
				}
				lks = append(lks, lk)
				rks = append(rks, rk)
			}
			residual, err := compileResidual(residualIdx)
			if err != nil {
				return nil, err
			}
			markUsed(equiIdx, residualIdx)
			hj := newHashJoin(left, right, lks, rks, residual)
			return db.instrument("hashjoin", hj, left, right), nil
		}
	}
	// Block nested loop: the hint's, or a join without the equi-key its
	// method needs.
	residual, err := compileResidual(applicable)
	if err != nil {
		return nil, err
	}
	markUsed(applicable)
	return db.instrument("nljoin", newNLJoin(left, right, residual), left, right), nil
}

// colIndex is the position in schema of the column e names, or -1 when
// e is not a column reference resolving there.
func colIndex(e sqlast.Expr, schema types.Schema) int {
	if cr, ok := e.(sqlast.ColumnRef); ok {
		return schema.ColumnIndex(cr.String())
	}
	return -1
}

// identity reports whether picks picks each of n columns in order.
func identity(picks []int, n int) bool {
	if len(picks) != n {
		return false
	}
	for i, k := range picks {
		if k != i {
			return false
		}
	}
	return true
}

// planProjection compiles the select list without aggregation. When
// every item is a column of in, picks lists them (nil otherwise).
func planProjection(items []sqlast.SelectItem, in types.Schema) (types.Schema, []evalFunc, []int, error) {
	var cols []types.Column
	var (
		exprs    []evalFunc
		picks    []int
		computed bool
	)
	for i, item := range items {
		switch x := item.Expr.(type) {
		case sqlast.Star:
			for ci := range in.Cols {
				idx := ci
				cols = append(cols, types.Column{
					Name: unqualify(in.Cols[ci].Name),
					Kind: in.Cols[ci].Kind,
				})
				exprs = append(exprs, func(t types.Tuple) (types.Value, error) { return t[idx], nil })
				picks = append(picks, idx)
			}
		case sqlast.ColumnRef:
			if x.Name == "*" {
				// tab.* form.
				found := false
				for ci := range in.Cols {
					if starCovers(x.Table, in.Cols[ci].Name) {
						idx := ci
						cols = append(cols, types.Column{
							Name: unqualify(in.Cols[ci].Name),
							Kind: in.Cols[ci].Kind,
						})
						exprs = append(exprs, func(t types.Tuple) (types.Value, error) { return t[idx], nil })
						picks = append(picks, idx)
						found = true
					}
				}
				if !found {
					return types.Schema{}, nil, nil, fmt.Errorf("engine: no columns for %s.*", x.Table)
				}
				continue
			}
			f, err := compileExpr(x, in)
			if err != nil {
				return types.Schema{}, nil, nil, err
			}
			cols = append(cols, types.Column{Name: outputName(item, i), Kind: inferKind(x, in)})
			exprs = append(exprs, f)
			picks = append(picks, in.ColumnIndex(x.String()))
		default:
			f, err := compileExpr(item.Expr, in)
			if err != nil {
				return types.Schema{}, nil, nil, err
			}
			cols = append(cols, types.Column{Name: outputName(item, i), Kind: inferKind(item.Expr, in)})
			exprs = append(exprs, f)
			computed = true
		}
	}
	if computed {
		picks = nil
	}
	return types.Schema{Cols: cols}, exprs, picks, nil
}

func unqualify(name string) string {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return name[dot+1:]
	}
	return name
}

// --- Grouping context ---

// groupCtx rewrites post-aggregation expressions against the
// groupIter's internal schema.
type groupCtx struct {
	groupKeys []sqlast.Expr
	aggs      []sqlast.FuncCall
	internal  types.Schema
	inSchema  types.Schema
}

// planGroup builds the groupIter for a SELECT with aggregation.
func (db *DB) planGroup(in rel.Iterator, s *sqlast.SelectStmt) (rel.Iterator, *groupCtx, error) {
	inSchema := in.Schema()
	// Collect aggregate calls appearing anywhere downstream.
	var aggCalls []sqlast.FuncCall
	seen := map[string]bool{}
	collect := func(e sqlast.Expr) {
		sqlast.Walk(e, func(x sqlast.Expr) bool {
			if f, ok := x.(sqlast.FuncCall); ok && sqlast.IsAggregateName(f.Name) {
				k := exprKey(f)
				if !seen[k] {
					seen[k] = true
					aggCalls = append(aggCalls, f)
				}
				return false
			}
			return true
		})
	}
	for _, item := range s.Items {
		collect(item.Expr)
	}
	if s.Having != nil {
		collect(s.Having)
	}
	for _, o := range s.OrderBy {
		collect(o.Expr)
	}

	keys := make([]evalFunc, len(s.GroupBy))
	var cols []types.Column
	for i, g := range s.GroupBy {
		k, err := compileExpr(g, inSchema)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = k
		name := g.String()
		if cr, ok := g.(sqlast.ColumnRef); ok {
			name = cr.String()
		}
		cols = append(cols, types.Column{Name: name, Kind: inferKind(g, inSchema)})
	}
	var specs []*aggSpec
	for ai, f := range aggCalls {
		if err := validateAgg(f.Name, len(f.Args)); err != nil {
			return nil, nil, err
		}
		spec := &aggSpec{name: f.Name, distinct: f.Distinct}
		if _, isStar := f.Args[0].(sqlast.Star); !isStar {
			arg, err := compileExpr(f.Args[0], inSchema)
			if err != nil {
				return nil, nil, err
			}
			spec.arg = arg
		}
		specs = append(specs, spec)
		cols = append(cols, types.Column{
			Name: fmt.Sprintf("$agg%d", ai),
			Kind: inferKind(f, inSchema),
		})
	}
	internal := types.Schema{Cols: cols}
	g := newGroup(in, keys, specs, internal)
	return g, &groupCtx{groupKeys: s.GroupBy, aggs: aggCalls, internal: internal, inSchema: inSchema}, nil
}

// compile rewrites an expression against the internal grouped schema:
// group-key expressions and aggregate calls become column references.
func (c *groupCtx) compile(e sqlast.Expr) (evalFunc, error) {
	rewritten, err := c.rewrite(e)
	if err != nil {
		return nil, err
	}
	return compileExpr(rewritten, c.internal)
}

func (c *groupCtx) rewrite(e sqlast.Expr) (sqlast.Expr, error) {
	key := exprKey(e)
	for i, g := range c.groupKeys {
		if exprKey(g) == key {
			return sqlast.ColumnRef{Name: c.internal.Cols[i].Name}, nil
		}
	}
	for j, a := range c.aggs {
		if exprKey(a) == key {
			return sqlast.ColumnRef{Name: fmt.Sprintf("$agg%d", j)}, nil
		}
	}
	switch x := e.(type) {
	case sqlast.Literal:
		return x, nil
	case sqlast.ColumnRef:
		// A bare column must match a group key — including the common
		// case where the key is qualified ("B.PosID") and the select
		// item is not ("PosID"), or vice versa.
		for i, g := range c.groupKeys {
			if gr, ok := g.(sqlast.ColumnRef); ok && strings.EqualFold(gr.Name, x.Name) {
				return sqlast.ColumnRef{Name: c.internal.Cols[i].Name}, nil
			}
		}
		return nil, fmt.Errorf("engine: column %s must appear in GROUP BY or an aggregate", x)
	case sqlast.BinaryExpr:
		l, err := c.rewrite(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.rewrite(x.Right)
		if err != nil {
			return nil, err
		}
		return sqlast.BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
	case sqlast.UnaryExpr:
		o, err := c.rewrite(x.Operand)
		if err != nil {
			return nil, err
		}
		return sqlast.UnaryExpr{Op: x.Op, Operand: o}, nil
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			ra, err := c.rewrite(a)
			if err != nil {
				return nil, err
			}
			args[i] = ra
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}, nil
	case sqlast.Between:
		ex, err := c.rewrite(x.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := c.rewrite(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.rewrite(x.Hi)
		if err != nil {
			return nil, err
		}
		return sqlast.Between{Expr: ex, Lo: lo, Hi: hi, Not: x.Not}, nil
	case sqlast.IsNull:
		ex, err := c.rewrite(x.Expr)
		if err != nil {
			return nil, err
		}
		return sqlast.IsNull{Expr: ex, Not: x.Not}, nil
	default:
		return nil, fmt.Errorf("engine: cannot rewrite %T after GROUP BY", e)
	}
}

// projectItems compiles the select list against the grouped schema.
func (c *groupCtx) projectItems(items []sqlast.SelectItem) (types.Schema, []evalFunc, error) {
	var cols []types.Column
	var exprs []evalFunc
	for i, item := range items {
		if _, ok := item.Expr.(sqlast.Star); ok {
			return types.Schema{}, nil, fmt.Errorf("engine: SELECT * with GROUP BY is not supported")
		}
		f, err := c.compile(item.Expr)
		if err != nil {
			return types.Schema{}, nil, err
		}
		rewritten, _ := c.rewrite(item.Expr)
		kind := inferKind(rewritten, c.internal)
		name := outputName(item, i)
		if item.Alias == "" {
			if cr, ok := item.Expr.(sqlast.ColumnRef); ok {
				name = cr.Name
			} else if fc, ok := item.Expr.(sqlast.FuncCall); ok {
				name = fc.Name
			}
		}
		cols = append(cols, types.Column{Name: name, Kind: kind})
		exprs = append(exprs, f)
	}
	return types.Schema{Cols: cols}, exprs, nil
}

// --- helper iterators ---

// dualIter yields exactly one empty tuple ("SELECT 1").
type dualIter struct{ done bool }

func (*dualIter) Schema() types.Schema { return types.Schema{} }
func (d *dualIter) Open() error        { d.done = false; return nil }
func (*dualIter) Close() error         { return nil }

func (d *dualIter) NextBatch(dst []types.Tuple) (int, error) {
	if d.done {
		return 0, nil
	}
	d.done = true
	dst[0] = types.Tuple{}
	return 1, nil
}

// renameIter overrides the schema of its input (used to alias derived
// tables).
type renameIter struct {
	in     rel.Input
	schema types.Schema
}

func (r *renameIter) Schema() types.Schema                     { return r.schema }
func (r *renameIter) Open() error                              { return r.in.Open() }
func (r *renameIter) Close() error                             { return r.in.Close() }
func (r *renameIter) NextBatch(dst []types.Tuple) (int, error) { return r.in.NextBatch(dst) }
