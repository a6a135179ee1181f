// Package optimizer implements TANGO's query optimizer: a Volcano
// memo over the middleware algebra. The transformation rules are the
// paper's T1–T12 heuristics and E1–E5 equivalences (§4), fired once per
// memo expression; sort order is a required physical property with
// sort as its enforcer, so the rules that only shuffle sorts are
// subsumed. The optimizer reports its equivalence-class and element
// counts the way the paper does for each experiment query.
package optimizer

import (
	"strings"

	"tango/internal/algebra"
	"tango/internal/eval"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// Rule is one transformation: given a subtree root, it returns zero or
// more equivalent subtree roots. Rewrites may share the subtree's
// inputs (the memo never mutates a node).
type Rule struct {
	Name string
	// Deep rules also match on the operator of the root's left input;
	// the memo fires them once per (expression, left-input expression)
	// pair and the others once per expression.
	Deep  bool
	Apply func(n *algebra.Node) []*algebra.Node
}

// schemaOf resolves a subtree's output schema (the memo answers from
// the subtree's group).
type schemaOf func(n *algebra.Node) (types.Schema, error)

// DefaultRules returns the rule set of §4. The rules that inspect
// column names (selection pushdown, narrowing, commuting, coalescing)
// resolve schemas through schema.
func DefaultRules(schema schemaOf) []Rule {
	return []Rule{
		{Name: "T1-taggr-to-mw", Apply: ruleT1},
		{Name: "T2-join-to-mw", Apply: joinToMW(algebra.OpJoin)},
		{Name: "T3-tjoin-to-mw", Apply: joinToMW(algebra.OpTJoin)},
		{Name: "T4-select-above-tm", Deep: true, Apply: ruleT4},
		{Name: "T5-project-above-tm", Deep: true, Apply: ruleT5},
		{Name: "T7-collapse-tm-td", Deep: true, Apply: ruleT7},
		{Name: "T8-collapse-td-tm", Deep: true, Apply: ruleT8},
		{Name: "E1-project-select-commute", Deep: true, Apply: ruleE1},
		{Name: "E2-join-commute", Apply: joinCommute(schema)},
		{Name: "G4-select-below-join", Deep: true, Apply: selectBelowJoin(schema)},
		{Name: "G4-narrow-taggr-input", Deep: true, Apply: narrowTAggrInput(schema)},
		{Name: "T5r-project-below-tm", Deep: true, Apply: ruleProjectBelowTM},
		{Name: "TC1-coalesce-to-mw", Apply: coalesceToMW(schema)},
		{Name: "TD1-dupelim-to-mw", Apply: ruleDupElimToMW},
		{Name: "VC1-select-coalesce-commute", Deep: true, Apply: ruleSelectCoalesce},
	}
}

// coalesceToMW moves a DBMS-resident coalescing to the middleware —
// mandatory, since coalescing has no SQL translation (the paper lists
// it among the operators "that may later be added to TANGO"):
// coal(r) →M T^D(coal(T^M(r))). COALESCE^M requires its input sorted on
// all non-time attributes and T1 (see inputOrders).
func coalesceToMW(schema schemaOf) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpCoalesce || n.Loc() != algebra.LocDBMS {
			return nil
		}
		s, err := schema(n.Left)
		if err != nil {
			return nil
		}
		if t1, t2 := algebra.TimeColumns(s); t1 < 0 || t2 < 0 {
			return nil
		}
		return []*algebra.Node{algebra.TD(algebra.Coalesce(algebra.TM(n.Left)))}
	}
}

// ruleDupElimToMW offers a middleware alternative for duplicate
// elimination (hash-based, no sort requirement):
// rdup(r) →M T^D(rdup(T^M(r))).
func ruleDupElimToMW(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpDupElim || n.Loc() != algebra.LocDBMS {
		return nil
	}
	return []*algebra.Node{algebra.TD(algebra.DupElim(algebra.TM(n.Left)))}
}

// ruleSelectCoalesce adopts Vassilakis's coalesce/selection
// optimization (§6 of the paper): a non-temporal selection commutes
// with coalescing, σ_P(coal(r)) ≡ coal(σ_P(r)), letting the selection
// shrink the coalescing argument. Predicates over T1/T2 must not move:
// coalescing changes the periods.
func ruleSelectCoalesce(n *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	if n.Op == algebra.OpSelect && n.Left.Op == algebra.OpCoalesce && !mentionsPeriod(n.Pred) {
		out = append(out, algebra.Coalesce(algebra.Select(n.Left.Left, n.Pred)))
	}
	if n.Op == algebra.OpCoalesce && n.Left.Op == algebra.OpSelect && !mentionsPeriod(n.Left.Pred) {
		out = append(out, algebra.Select(algebra.Coalesce(n.Left.Left), n.Left.Pred))
	}
	return out
}

// ruleT1 moves a DBMS-resident temporal aggregation to the middleware:
// ξ(r) →M T^D(ξ(T^M(r))). TAGGR^M requires its input sorted on the
// grouping attributes and T1 (§3.4); the sort enforcer provides it.
func ruleT1(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTAggr || n.Loc() != algebra.LocDBMS {
		return nil
	}
	return []*algebra.Node{algebra.TD(algebra.TAggr(algebra.TM(n.Left), n.GroupBy, n.Aggs...))}
}

// joinToMW is T2 (op = join) and T3 (op = temporal join): a DBMS join
// moves to the middleware as a sort-merge join,
// r1 ⋈ r2 →M T^D(T^M(r1) ⋈ T^M(r2)), its inputs sorted on the join
// columns by the enforcer.
func joinToMW(op algebra.Op) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != op || n.Loc() != algebra.LocDBMS {
			return nil
		}
		moved := *n
		moved.Left, moved.Right = algebra.TM(n.Left), algebra.TM(n.Right)
		return []*algebra.Node{algebra.TD(&moved)}
	}
}

// ruleT4: T^M(σ_P(r)) →M σ_P(T^M(r)) — evaluate the selection in the
// middleware instead.
func ruleT4(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpSelect {
		return nil
	}
	return []*algebra.Node{algebra.Select(algebra.TM(n.Left.Left), n.Left.Pred)}
}

// ruleT5: T^M(π(r)) →M π(T^M(r)).
func ruleT5(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpTM || n.Left.Op != algebra.OpProject {
		return nil
	}
	return []*algebra.Node{algebra.Project(algebra.TM(n.Left.Left), n.Left.Cols...)}
}

// ruleT7: T^M(T^D(r)) →M r.
func ruleT7(n *algebra.Node) []*algebra.Node { return collapse(n, algebra.OpTM, algebra.OpTD) }

// ruleT8: T^D(T^M(r)) →M r.
func ruleT8(n *algebra.Node) []*algebra.Node { return collapse(n, algebra.OpTD, algebra.OpTM) }

// collapse removes a transfer that directly undoes the one below it.
func collapse(n *algebra.Node, outer, inner algebra.Op) []*algebra.Node {
	if n.Op != outer || n.Left.Op != inner {
		return nil
	}
	return []*algebra.Node{n.Left.Left}
}

// ruleE1: π(σ_P(r)) ≡L σ_P(π(r)), left-to-right only when the
// predicate's attributes survive the projection; both directions
// generated where legal.
func ruleE1(n *algebra.Node) []*algebra.Node {
	var out []*algebra.Node
	if n.Op == algebra.OpProject && n.Left.Op == algebra.OpSelect {
		// π(σ(r)) → σ(π(r)) requires attrs(P) ⊆ projected outputs.
		if predColsSurvive(n.Left.Pred, n.Cols) {
			out = append(out, algebra.Select(algebra.Project(n.Left.Left, n.Cols...), renamePred(n.Left.Pred, n.Cols)))
		}
	}
	if n.Op == algebra.OpSelect && n.Left.Op == algebra.OpProject {
		// σ(π(r)) → π(σ(r)): rewrite the predicate to source names.
		if pred, ok := unrenamePred(n.Pred, n.Left.Cols); ok {
			out = append(out, algebra.Project(algebra.Select(n.Left.Left, pred), n.Left.Cols...))
		}
	}
	return out
}

// joinCommute is E2: r1 ⋈ r2 ≡M r2 ⋈ r1. Commuting swaps the output
// column order, so the rewrite wraps the swapped join in a projection
// restoring the original order — making the plans equivalent as
// relations, not merely up to column permutation. The rule skips
// inputs whose schemas cannot be resolved or whose column names
// collide (an unaliased self-join).
func joinCommute(schema schemaOf) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpJoin {
			return nil
		}
		orig, err := schema(n)
		if err != nil {
			return nil
		}
		seen := map[string]bool{}
		cols := make([]algebra.ProjCol, orig.Len())
		for i, c := range orig.Cols {
			key := strings.ToUpper(c.Name)
			if seen[key] {
				return nil
			}
			seen[key] = true
			cols[i] = algebra.ProjCol{Src: c.Name, As: c.Name}
		}
		swapped := algebra.Join(n.Right, n.Left, n.RightCols, n.LeftCols)
		return []*algebra.Node{algebra.Project(swapped, cols...)}
	}
}

// narrowTAggrInput is the paper's "reduce the arguments of expensive
// operations" applied to projection: temporal aggregation needs only
// its grouping columns, aggregate columns, and the period; extra input
// columns only inflate sorts and transfers. The rule inserts that
// projection directly below the aggregation; T5r then pushes it into
// the DBMS.
func narrowTAggrInput(schema schemaOf) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpTAggr || n.Left.Op == algebra.OpProject {
			return nil // not an aggregation, or already narrowed (or user-projected)
		}
		in, err := schema(n.Left)
		if err != nil {
			return nil
		}
		needed := map[int]bool{}
		keep := func(col string) bool {
			j := in.ColumnIndex(col)
			if j < 0 {
				return false
			}
			needed[j] = true
			return true
		}
		for _, g := range n.GroupBy {
			if !keep(g) {
				return nil
			}
		}
		for _, a := range n.Aggs {
			if !keep(a.Col) {
				return nil
			}
		}
		t1, t2 := algebra.TimeColumns(in)
		if t1 < 0 || t2 < 0 {
			return nil
		}
		needed[t1], needed[t2] = true, true
		if len(needed) >= in.Len() {
			return nil // nothing to trim
		}
		var cols []algebra.ProjCol
		for i, c := range in.Cols {
			if needed[i] {
				cols = append(cols, algebra.ProjCol{Src: c.Name, As: c.Name})
			}
		}
		out := *n
		out.Left = algebra.Project(n.Left, cols...)
		return []*algebra.Node{&out}
	}
}

// ruleProjectBelowTM is T5 read right-to-left: π(T^M(r)) →M T^M(π(r)),
// pushing a projection into the DBMS so the transfer ships fewer
// bytes. (The paper notes that introducing projections into DBMS parts
// helps the optimizer estimate — and here reduce — transfer costs.)
func ruleProjectBelowTM(n *algebra.Node) []*algebra.Node {
	if n.Op != algebra.OpProject || n.Left.Op != algebra.OpTM {
		return nil
	}
	return []*algebra.Node{algebra.TM(algebra.Project(n.Left.Left, n.Cols...))}
}

// selectBelowJoin is a heuristic-group-4 rewrite ("reduce the
// arguments of expensive operations"): σ_P(r1 ⋈ r2) is rewritten to
// push P into the join input that can resolve all its columns,
// shrinking the expensive operator's argument.
func selectBelowJoin(schema schemaOf) func(n *algebra.Node) []*algebra.Node {
	return func(n *algebra.Node) []*algebra.Node {
		if n.Op != algebra.OpSelect {
			return nil
		}
		j := n.Left
		if j.Op != algebra.OpJoin && j.Op != algebra.OpTJoin {
			return nil
		}
		if j.Op == algebra.OpTJoin && mentionsPeriod(n.Pred) {
			// The temporal join replaces T1/T2 with the intersected
			// period; predicates over them cannot move below it.
			return nil
		}
		cols := eval.ExprColumns(n.Pred)
		holds := func(in *algebra.Node) bool {
			s, err := schema(in)
			return err == nil && resolves(s, cols)
		}
		mk := func(left, right *algebra.Node) *algebra.Node {
			out := *j
			out.Left, out.Right = left, right
			return &out
		}
		var rewrites []*algebra.Node
		if holds(j.Left) {
			rewrites = append(rewrites, mk(algebra.Select(j.Left, n.Pred), j.Right))
		}
		if holds(j.Right) {
			rewrites = append(rewrites, mk(j.Left, algebra.Select(j.Right, n.Pred)))
		}
		return rewrites
	}
}

// --- helpers ---

// colEq matches column names case-insensitively; a qualified name also
// matches its unqualified form (A.PosID ~ PosID, but not ~ B.PosID).
func colEq(a, b string) bool {
	if strings.EqualFold(a, b) {
		return true
	}
	return (!strings.Contains(a, ".") || !strings.Contains(b, ".")) &&
		strings.EqualFold(algebra.Unqualify(a), algebra.Unqualify(b))
}

// isPrefixOf reports whether a is a prefix of b, column by column.
func isPrefixOf(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if !colEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sourceKeys maps sort keys named by a projection's outputs to the
// projection's source columns; ok is false when a key is not an output.
func sourceKeys(keys []string, cols []algebra.ProjCol) ([]string, bool) {
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		for _, c := range cols {
			if colEq(c.Out(), k) {
				out = append(out, c.Src)
				break
			}
		}
	}
	return out, len(out) == len(keys)
}

// mentionsPeriod reports whether a predicate reads T1 or T2.
func mentionsPeriod(pred sqlast.Expr) bool {
	for _, c := range eval.ExprColumns(pred) {
		if u := strings.ToUpper(algebra.Unqualify(c)); u == "T1" || u == "T2" {
			return true
		}
	}
	return false
}

// predColsSurvive reports whether every predicate column appears among
// the projection sources (so the predicate can run after projection).
func predColsSurvive(pred sqlast.Expr, cols []algebra.ProjCol) bool {
	for _, c := range eval.ExprColumns(pred) {
		found := false
		for _, pc := range cols {
			if strings.EqualFold(pc.Src, c) || strings.EqualFold(algebra.Unqualify(pc.Src), algebra.Unqualify(c)) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// renamePred rewrites predicate column references from projection
// sources to outputs.
func renamePred(pred sqlast.Expr, cols []algebra.ProjCol) sqlast.Expr {
	mapping := map[string]string{}
	for _, pc := range cols {
		mapping[strings.ToUpper(pc.Src)] = pc.Out()
		mapping[strings.ToUpper(algebra.Unqualify(pc.Src))] = pc.Out()
	}
	return mapCols(pred, mapping)
}

// unrenamePred rewrites predicate column references from projection
// outputs back to sources; fails when a referenced column is not an
// output.
func unrenamePred(pred sqlast.Expr, cols []algebra.ProjCol) (sqlast.Expr, bool) {
	mapping := map[string]string{}
	for _, pc := range cols {
		mapping[strings.ToUpper(pc.Out())] = pc.Src
	}
	ok := true
	for _, c := range eval.ExprColumns(pred) {
		if _, found := mapping[strings.ToUpper(c)]; !found {
			ok = false
		}
	}
	if !ok {
		return nil, false
	}
	return mapCols(pred, mapping), true
}

func mapCols(e sqlast.Expr, mapping map[string]string) sqlast.Expr {
	switch x := e.(type) {
	case sqlast.ColumnRef:
		name := x.Name
		if x.Table != "" {
			name = x.Table + "." + x.Name
		}
		if to, ok := mapping[strings.ToUpper(name)]; ok {
			return colRefOf(to)
		}
		return x
	case sqlast.BinaryExpr:
		return sqlast.BinaryExpr{Op: x.Op, Left: mapCols(x.Left, mapping), Right: mapCols(x.Right, mapping)}
	case sqlast.UnaryExpr:
		return sqlast.UnaryExpr{Op: x.Op, Operand: mapCols(x.Operand, mapping)}
	case sqlast.FuncCall:
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = mapCols(a, mapping)
		}
		return sqlast.FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct}
	case sqlast.Between:
		return sqlast.Between{Expr: mapCols(x.Expr, mapping), Lo: mapCols(x.Lo, mapping), Hi: mapCols(x.Hi, mapping), Not: x.Not}
	case sqlast.IsNull:
		return sqlast.IsNull{Expr: mapCols(x.Expr, mapping), Not: x.Not}
	default:
		return e
	}
}

func colRefOf(name string) sqlast.ColumnRef {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return sqlast.ColumnRef{Table: name[:dot], Name: name[dot+1:]}
	}
	return sqlast.ColumnRef{Name: name}
}
