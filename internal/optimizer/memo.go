package optimizer

import (
	"math"
	"strings"

	"tango/internal/algebra"
	"tango/internal/cost"
	"tango/internal/stats"
	"tango/internal/types"
)

// memo is the Volcano search space of one optimization: groups of
// equivalent expressions, each expression one operator with its
// arguments over input groups. A group's location, schema and
// statistics are derived once, from its first expression; every rule
// in rules.go preserves them.
type memo struct {
	snap   *stats.Snapshot
	model  *cost.Model
	rules  []Rule
	fired  map[string]int
	groups []*group
	work   []*mexpr // expressions whose rule bindings are not all tried yet
	byKey  map[exprKey]*mexpr
	// owner maps expression nodes (and rule bindings of them) to their
	// group, so a rewrite that reuses an input is placed without a key.
	owner map[*algebra.Node]int
	tried map[[2]*mexpr]bool // (expression, left-input expression) pairs fired
}

type group struct {
	merged  int      // the group this one was merged into; its own id while live
	exprs   []*mexpr // in insertion order
	parents []*mexpr // expressions whose left input is this group
	loc     algebra.Location
	schema  types.Schema
	stats   *stats.RelStats
}

// mexpr is one group expression. Its node carries the operator and
// arguments; the node's inputs are the first expressions of its input
// groups, so rules can look one level further down.
type mexpr struct {
	n     *algebra.Node
	args  string // operator and arguments, rendered once
	kids  []int
	group int
	cost  float64 // the operator alone, from its group's and inputs' statistics
	class class   // the narrowest placement class the operator lies in
}

// exprKey identifies an expression: operator with arguments, and the
// input groups (-1 when absent).
type exprKey struct {
	args        string
	left, right int
}

func newMemo(snap *stats.Snapshot, model *cost.Model) *memo {
	return &memo{snap: snap, model: model, fired: map[string]int{},
		byKey: map[exprKey]*mexpr{}, owner: map[*algebra.Node]int{}, tried: map[[2]*mexpr]bool{}}
}

func (m *memo) find(g int) int {
	for m.groups[g].merged != g {
		g = m.groups[g].merged
	}
	return g
}

func (m *memo) groupOf(e *mexpr) *group { return m.groups[m.find(e.group)] }

// schema resolves a subtree's schema from its group when the subtree is
// (a binding of) a memo expression.
func (m *memo) schema(n *algebra.Node) (types.Schema, error) {
	if g, ok := m.owner[n]; ok {
		return m.groups[m.find(g)].schema, nil
	}
	return n.Schema(m.snap)
}

func (m *memo) key(args string, kids []int) exprKey {
	k := exprKey{args, -1, -1}
	if len(kids) > 0 {
		k.left = m.find(kids[0])
	}
	if len(kids) > 1 {
		k.right = m.find(kids[1])
	}
	return k
}

// insert adds a tree's operators bottom up and returns the group of its
// root. A rewrite of an expression of group into lands there, merging
// the two groups when the rewrite already lives in another; into < 0
// opens a new group for a new root. Sorts are dropped: order is a
// required property, not an operator. It returns -1 when the tree is
// not a valid plan.
func (m *memo) insert(n *algebra.Node, into int) int {
	if n.Op == algebra.OpSort {
		return m.insert(n.Left, into)
	}
	if g, ok := m.owner[n]; ok {
		return m.merge(into, g)
	}
	var kids []int
	var in []*group
	var inSchemas []types.Schema
	var inStats []*stats.RelStats
	for _, c := range [2]*algebra.Node{n.Left, n.Right} {
		if c != nil {
			g := m.insert(c, -1)
			if g < 0 {
				return -1
			}
			kids, in = append(kids, g), append(in, m.groups[g])
			inSchemas, inStats = append(inSchemas, m.groups[g].schema), append(inStats, m.groups[g].stats)
		}
	}
	op := *n
	op.Left, op.Right = nil, nil
	args := op.Key()
	k := m.key(args, kids)
	if e, ok := m.byKey[k]; ok {
		return m.merge(into, e.group)
	}
	if len(in) > 0 {
		op.Left = in[0].exprs[0].n
	}
	if len(in) > 1 {
		op.Right = in[1].exprs[0].n
	}
	if op.Validate() != nil { // a misplaced transfer or a join straddling the boundary
		return -1
	}
	loc := op.Loc()
	if into < 0 {
		schema, err := n.Derive(m.snap, inSchemas...)
		if err != nil {
			return -1
		}
		st, err := m.snap.Derive(n, schema, inSchemas, inStats)
		if err != nil {
			return -1
		}
		into = len(m.groups)
		m.groups = append(m.groups, &group{merged: into, loc: loc, schema: schema, stats: st})
	}
	into = m.find(into)
	g := m.groups[into]
	if g.loc != loc {
		return -1
	}
	e := &mexpr{n: &op, args: args, kids: kids, group: into, cost: m.model.OpCost(n, loc, g.stats, inStats...),
		class: placement(n.Op, loc)}
	m.work = append(m.work, e)
	m.byKey[k] = e
	m.owner[e.n] = into
	g.exprs = append(g.exprs, e)
	if len(in) > 0 {
		in[0].parents = append(in[0].parents, e)
	}
	return into
}

// merge unites two groups found equivalent (a < 0 keeps b) into the
// older one and returns it. Keys naming the younger group are renewed,
// and the merged group's expressions are queued again so the rules see
// the bindings the merge created.
func (m *memo) merge(a, b int) int {
	b = m.find(b)
	if a < 0 {
		return b
	}
	if a = m.find(a); a == b {
		return a
	}
	if b < a {
		a, b = b, a
	}
	ga, gb := m.groups[a], m.groups[b]
	gb.merged = a
	ga.exprs = append(ga.exprs, gb.exprs...)
	ga.parents = append(ga.parents, gb.parents...)
	gb.exprs, gb.parents = nil, nil
	m.work = append(m.work, ga.exprs...)
	for _, g := range m.groups {
		for _, e := range g.exprs {
			if k := m.key(e.args, e.kids); m.byKey[k] == nil {
				m.byKey[k] = e
			}
		}
	}
	return a
}

// explore fires the rules until they add nothing: the deep rules once
// per (expression, left-input expression) pair, the others once per
// expression.
func (m *memo) explore() {
	for len(m.work) > 0 {
		x := m.work[0]
		m.work = m.work[1:]
		m.fire(x, nil)
		if len(x.kids) > 0 {
			for _, c := range m.groups[m.find(x.kids[0])].exprs {
				m.fire(x, c)
			}
		}
		for _, p := range m.groupOf(x).parents {
			m.fire(p, x)
		}
	}
}

// fire applies the rules to expression p, bound to left-input
// expression c for the deep rules (c == nil: the shallow rules).
func (m *memo) fire(p, c *mexpr) {
	if m.tried[[2]*mexpr{p, c}] {
		return
	}
	m.tried[[2]*mexpr{p, c}] = true
	n := p.n
	if c != nil {
		b := *p.n
		b.Left = c.n
		n = &b
		m.owner[n] = p.group
	}
	for _, r := range m.rules {
		if r.Deep == (c != nil) {
			for _, out := range r.Apply(n) {
				m.fired[r.Name]++
				m.insert(out, p.group)
			}
		}
	}
}

// counts returns the live groups and expressions: the paper's
// equivalence classes and class elements.
func (m *memo) counts() (classes, elements int) {
	for i, g := range m.groups {
		if g.merged == i {
			classes++
			elements += len(g.exprs)
		}
	}
	return classes, elements
}

// --- search ---

// class is a placement class, the set of plans a goal chooses from.
// Each class lies inside the one before it; the two narrow ones hold
// the fallback plans of tango/fallback.go.
type class uint8

const (
	anyPlan class = iota
	noTD          // no T^D: nothing is shipped back into the DBMS
	allDBMS       // one T^M at the root over an all-DBMS plan
)

// placement is the narrowest class an operator at loc lies in.
func placement(op algebra.Op, loc algebra.Location) class {
	switch {
	case op == algebra.OpTD:
		return anyPlan
	case op == algebra.OpTM || loc == algebra.LocDBMS:
		return allDBMS
	}
	return noTD
}

// goal is one optimization goal: a group under a required order,
// choosing from the plans of one class.
type goal struct {
	group int
	order string
	class class
}

// win is a goal's cheapest plan: expression e over the winners of its
// inputs' goals of class at for the orders in, or (e == nil) a sort
// enforcing the order over the group's cheapest unordered plan of
// class at. class is the narrowest class the whole plan lies in.
type win struct {
	cost      float64
	e         *mexpr
	in        [][]string
	at, class class
}

// search is the goal table of one optimization: the cheapest plan per
// (group, order, class). A goal in progress reads as infeasible,
// which cuts the cycles that commuting rules and T^M/T^D collapses
// create; an entry that is not nil is finished.
type search struct {
	m      *memo
	wins   map[goal]*win
	costed int
}

func orderKey(order []string) string { return strings.ToUpper(strings.Join(order, ",")) }

// cheaper breaks near-ties (summation order differs between plans)
// toward the incumbent, i.e. the expression inserted first.
func cheaper(c, than float64) bool { return c < than-1e-9*than }

// best returns the cheapest plan of class c of group g delivering
// order (nil when there is none). A narrow goal takes a wider goal's
// finished winner when that lies in c; only otherwise does it price
// the expressions of c itself.
func (s *search) best(g int, order []string, c class) *win {
	g = s.m.find(g)
	k := goal{g, orderKey(order), c}
	if w, ok := s.wins[k]; ok {
		return w
	}
	for wider := anyPlan; wider < c; wider++ {
		if w := s.wins[goal{g, k.order, wider}]; w != nil && w.class >= c {
			s.wins[k] = w
			return w
		}
	}
	s.wins[k] = nil // in progress; for good when order is not over g's columns
	grp := s.m.groups[g]
	if !resolves(grp.schema, order) {
		return nil
	}
	var best *win
	for _, e := range grp.exprs {
		if e.class < c {
			continue
		}
		in, ok := s.m.inputOrders(e, order)
		if !ok {
			continue
		}
		if cost, cls, ok := s.complete(e, in, c); ok && (best == nil || cheaper(cost, best.cost)) {
			best = &win{cost: cost, e: e, in: in, at: c, class: cls}
		}
	}
	if sc := placement(algebra.OpSort, grp.loc); len(order) > 0 && sc >= c {
		if w := s.best(g, nil, c); w != nil {
			if cost := s.m.sortCost(g) + w.cost; best == nil || cheaper(cost, best.cost) {
				best = &win{cost: cost, at: c, class: min(sc, w.class)}
			}
		}
	}
	s.wins[k] = best
	return best
}

// complete prices e over its inputs' cheapest plans of class c for
// the orders in, and returns the narrowest class the plan lies in.
func (s *search) complete(e *mexpr, in [][]string, c class) (float64, class, bool) {
	s.costed++
	cost, cls := e.cost, e.class
	for i, g := range e.kids {
		w := s.best(g, in[i], c)
		if w == nil {
			return 0, 0, false
		}
		cost, cls = cost+w.cost, min(cls, w.class)
	}
	return cost, cls, !math.IsInf(cost, 1) // an unexecutable operator prices at +Inf
}

// sortCost prices a sort of group g's output.
func (m *memo) sortCost(g int) float64 {
	grp := m.groups[m.find(g)]
	return m.model.OpCost(algebra.Sort(nil), grp.loc, grp.stats, grp.stats)
}

// completion is the cheapest plan rooted at e delivering order, with a
// sort enforcing order above e when e cannot deliver it itself.
func (s *search) completion(e *mexpr, order []string) (Candidate, bool) {
	in, ordered := s.m.inputOrders(e, order)
	if !ordered {
		in, _ = s.m.inputOrders(e, nil)
	}
	c, _, ok := s.complete(e, in, anyPlan)
	if !ok {
		return Candidate{}, false
	}
	if ordered {
		return Candidate{Plan: s.build(e, in, anyPlan), Cost: c}, true
	}
	return Candidate{Plan: algebra.Sort(s.build(e, in, anyPlan), order...), Cost: s.m.sortCost(e.group) + c}, true
}

// plan builds the winning plan of a goal as a fresh tree.
func (s *search) plan(g int, order []string, c class) *algebra.Node {
	w := s.best(g, order, c)
	if w.e == nil {
		return algebra.Sort(s.plan(g, nil, w.at), order...)
	}
	return s.build(w.e, w.in, w.at)
}

func (s *search) build(e *mexpr, in [][]string, c class) *algebra.Node {
	n := *e.n
	n.Left, n.Right = nil, nil
	if len(e.kids) > 0 {
		n.Left = s.plan(e.kids[0], in[0], c)
	}
	if len(e.kids) > 1 {
		n.Right = s.plan(e.kids[1], in[1], c)
	}
	return &n
}

// inputOrders returns the orders e's inputs must deliver for e to run
// and to deliver order itself; ok is false when it cannot. Middleware
// operators are order preserving and partly order requiring (TAGGR^M,
// the merge joins, COALESCE^M); DBMS operators promise no order, which
// only a sort enforcer directly below a T^M provides.
func (m *memo) inputOrders(e *mexpr, order []string) (in [][]string, ok bool) {
	n := e.n
	if m.groupOf(e).loc == algebra.LocDBMS {
		return make([][]string, len(e.kids)), len(order) == 0
	}
	switch n.Op {
	case algebra.OpTM, algebra.OpSelect, algebra.OpDupElim:
		return [][]string{order}, true
	case algebra.OpProject:
		src, ok := sourceKeys(order, n.Cols)
		return [][]string{src}, ok
	case algebra.OpTAggr:
		need := append(append([]string{}, n.GroupBy...), "T1")
		return [][]string{need}, isPrefixOf(order, need)
	case algebra.OpJoin, algebra.OpTJoin:
		// Merge joins emit in left-input order, so the left input
		// carries whichever of the join columns and order extends the
		// other, as long as order's further keys are left columns the
		// join passes through unchanged.
		if !isPrefixOf(n.LeftCols, order) {
			return [][]string{n.LeftCols, n.RightCols}, isPrefixOf(order, n.LeftCols)
		}
		return [][]string{order, n.RightCols}, m.keepsLeft(e, order[len(n.LeftCols):])
	case algebra.OpCoalesce:
		// All non-time columns, then T1.
		in := m.groups[m.find(e.kids[0])].schema
		t1, t2 := algebra.TimeColumns(in)
		var need []string
		for i, c := range in.Cols {
			if i != t1 && i != t2 {
				need = append(need, c.Name)
			}
		}
		need = append(need, in.Cols[t1].Name)
		return [][]string{need}, isPrefixOf(order, need)
	}
	return nil, false
}

// keepsLeft reports whether join e's output column for each key is a
// left-input column copied unchanged: not a right column, and not the
// period a temporal join intersects.
func (m *memo) keepsLeft(e *mexpr, keys []string) bool {
	out, left := m.groupOf(e).schema, m.groups[m.find(e.kids[0])].schema
	t1, t2 := algebra.TimeColumns(left)
	for _, k := range keys {
		i := left.ColumnIndex(k)
		if i < 0 || out.ColumnIndex(k) != i || (e.n.Op == algebra.OpTJoin && (i == t1 || i == t2)) {
			return false
		}
	}
	return true
}

// resolves reports whether every key names a column of s.
func resolves(s types.Schema, keys []string) bool {
	for _, k := range keys {
		if s.ColumnIndex(k) < 0 {
			return false
		}
	}
	return true
}
