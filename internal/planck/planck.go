// Package planck is TANGO's runtime plan validator ("plan check"): a
// debug-mode complement to the static tangolint suite. It walks a
// physical plan bottom-up, independently re-deriving the properties
// the optimizer and executor rely on, and rejects plans that violate
// them before a single row flows:
//
//   - schema propagation: every column a predicate, sort, join,
//     grouping, or aggregate references must resolve in its input
//     schema, and planck's independently derived root schema must
//     agree with the algebra's own derivation;
//   - sort-order annotations: middleware algorithms are order-REQUIRING
//     as well as order-preserving — a merge join needs both inputs
//     sorted on the equi columns, TAGGR^M needs (GroupBy..., T1),
//     COALESCE^M needs all non-time columns then T1. planck proves the
//     required order is actually established by the plan below, using
//     the same order semantics the optimizer's list equivalences assume
//     (DBMS order exists only through a topmost SORT; T^M preserves it,
//     T^D destroys it);
//   - duplicate annotations: rdup, coalesce, and temporal aggregation
//     yield duplicate-free outputs; the annotation is tracked so tests
//     and EXPLAIN can surface it;
//   - transfer placement: T^M only over DBMS-resident input, T^D only
//     over middleware-resident input, join inputs co-located, and the
//     plan root middleware-resident.
//
// The checks run after optimization (is the chosen plan well-formed?)
// and again in the executor's build step (did rewriting or hand-built
// plans sneak past?), under the middleware's CheckPlans switch, which
// the bench harness turns on for every test run.
package planck

import (
	"fmt"
	"strings"

	"tango/internal/algebra"
	"tango/internal/eval"
	"tango/internal/types"
)

// Props are the derived physical properties of a subtree.
type Props struct {
	// Schema is planck's independently derived output schema.
	Schema types.Schema
	// Order lists the column names the output is sorted on (a prefix
	// guarantee), nil when no order is promised.
	Order []string
	// DupFree reports whether the output provably carries no duplicate
	// tuples.
	DupFree bool
	// Loc is where the subtree's root operator executes.
	Loc algebra.Location
}

// Check validates a complete physical plan against the invariants
// above. The plan is not modified.
func Check(plan *algebra.Node, cat algebra.Catalog) error {
	p, err := Infer(plan, cat)
	if err != nil {
		return err
	}
	if p.Loc != algebra.LocMW {
		return fmt.Errorf("planck: plan root executes in the DBMS; a complete plan delivers to the middleware (add a T^M)")
	}
	// Cross-check the independent schema derivation against the
	// algebra's own: a mismatch means one of the two propagation
	// implementations is wrong, which is exactly what this validator
	// exists to catch.
	want, err := plan.Schema(cat)
	if err != nil {
		return fmt.Errorf("planck: algebra schema derivation failed: %w", err)
	}
	if err := sameSchema(want, p.Schema); err != nil {
		return fmt.Errorf("planck: schema derivations disagree at the root: %w", err)
	}
	return nil
}

// CheckIterator asserts that a built iterator's schema matches the
// plan's derived schema, the executor-side half of the schema
// propagation invariant.
func CheckIterator(plan *algebra.Node, cat algebra.Catalog, got types.Schema) error {
	want, err := plan.Schema(cat)
	if err != nil {
		return fmt.Errorf("planck: deriving plan schema: %w", err)
	}
	if err := sameSchema(want, got); err != nil {
		return fmt.Errorf("planck: executor iterator schema diverges from the plan: %w", err)
	}
	return nil
}

// Infer derives the physical properties of a subtree, failing on the
// first invariant violation.
func Infer(n *algebra.Node, cat algebra.Catalog) (Props, error) {
	if n == nil {
		return Props{}, fmt.Errorf("planck: nil plan node")
	}
	switch n.Op {
	case algebra.OpScan:
		s, err := cat.TableSchema(n.Table)
		if err != nil {
			return Props{}, fmt.Errorf("planck: scan %s: %w", n.Table, err)
		}
		if n.Alias != "" {
			s = s.Qualify(n.Alias)
		}
		return Props{Schema: s, Loc: algebra.LocDBMS}, nil

	case algebra.OpSelect:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		if n.Pred == nil {
			return Props{}, fmt.Errorf("planck: %s: selection without a predicate", n.Label())
		}
		for _, c := range eval.ExprColumns(n.Pred) {
			if in.Schema.ColumnIndex(c) < 0 {
				return Props{}, fmt.Errorf("planck: %s: predicate references %q, not in input schema %v",
					n.Label(), c, in.Schema.Names())
			}
		}
		loc := n.Loc()
		if loc == algebra.LocMW {
			// The executor will compile this predicate against exactly
			// this schema; fail now rather than at build time.
			if _, err := eval.Compile(n.Pred, in.Schema); err != nil {
				return Props{}, fmt.Errorf("planck: %s: predicate does not compile: %w", n.Label(), err)
			}
		}
		return Props{Schema: in.Schema, Order: regionOrder(loc, in.Order), DupFree: in.DupFree, Loc: loc}, nil

	case algebra.OpProject:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		if len(n.Cols) == 0 {
			return Props{}, fmt.Errorf("planck: %s: projection keeps no columns", n.Label())
		}
		cols := make([]types.Column, len(n.Cols))
		for i, pc := range n.Cols {
			j := in.Schema.ColumnIndex(pc.Src)
			if j < 0 {
				return Props{}, fmt.Errorf("planck: %s: projects %q, not in input schema %v",
					n.Label(), pc.Src, in.Schema.Names())
			}
			cols[i] = types.Column{Name: pc.Out(), Kind: in.Schema.Cols[j].Kind}
		}
		loc := n.Loc()
		return Props{
			Schema: types.Schema{Cols: cols},
			Order:  projectOrder(regionOrder(loc, in.Order), n.Cols),
			// A projection can collapse distinct tuples onto one another.
			DupFree: false,
			Loc:     loc,
		}, nil

	case algebra.OpSort:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		if len(n.Keys) == 0 {
			return Props{}, fmt.Errorf("planck: %s: sort without keys", n.Label())
		}
		for _, k := range n.Keys {
			if in.Schema.ColumnIndex(k) < 0 {
				return Props{}, fmt.Errorf("planck: %s: sort key %q not in input schema %v",
					n.Label(), k, in.Schema.Names())
			}
		}
		return Props{Schema: in.Schema, Order: append([]string{}, n.Keys...), DupFree: in.DupFree, Loc: n.Loc()}, nil

	case algebra.OpJoin, algebra.OpTJoin:
		return inferJoin(n, cat)

	case algebra.OpTAggr:
		return inferTAggr(n, cat)

	case algebra.OpDupElim:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		loc := n.Loc()
		// RDUP^M hashes first occurrences: order preserving, no sort
		// requirement.
		return Props{Schema: in.Schema, Order: regionOrder(loc, in.Order), DupFree: true, Loc: loc}, nil

	case algebra.OpCoalesce:
		return inferCoalesce(n, cat)

	case algebra.OpTM:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		if in.Loc != algebra.LocDBMS {
			return Props{}, fmt.Errorf("planck: T^M over a middleware-resident input (%s); transfers are only legal at the DBMS↔middleware boundary", n.Left.Label())
		}
		// T^M preserves order (the paper's list equivalence T6): the
		// final ORDER BY of the shipped statement is observed row order.
		return Props{Schema: in.Schema, Order: in.Order, DupFree: in.DupFree, Loc: algebra.LocMW}, nil

	case algebra.OpTD:
		in, err := Infer(n.Left, cat)
		if err != nil {
			return Props{}, err
		}
		if in.Loc != algebra.LocMW {
			return Props{}, fmt.Errorf("planck: T^D over a DBMS-resident input (%s); transfers are only legal at the DBMS↔middleware boundary", n.Left.Label())
		}
		// Loading into a DBMS table discards order (multiset semantics),
		// which is why the optimizer never asks for an order below one.
		return Props{Schema: in.Schema, Order: nil, DupFree: in.DupFree, Loc: algebra.LocDBMS}, nil

	default:
		return Props{}, fmt.Errorf("planck: unknown operator %v", n.Op)
	}
}

func inferJoin(n *algebra.Node, cat algebra.Catalog) (Props, error) {
	l, err := Infer(n.Left, cat)
	if err != nil {
		return Props{}, err
	}
	r, err := Infer(n.Right, cat)
	if err != nil {
		return Props{}, err
	}
	if l.Loc != r.Loc {
		return Props{}, fmt.Errorf("planck: %s: inputs in different locations (%v vs %v); a join cannot straddle the boundary",
			n.Label(), l.Loc, r.Loc)
	}
	if len(n.LeftCols) != len(n.RightCols) {
		return Props{}, fmt.Errorf("planck: %s: %d left vs %d right equi columns",
			n.Label(), len(n.LeftCols), len(n.RightCols))
	}
	for _, c := range n.LeftCols {
		if l.Schema.ColumnIndex(c) < 0 {
			return Props{}, fmt.Errorf("planck: %s: left equi column %q not in %v", n.Label(), c, l.Schema.Names())
		}
	}
	for _, c := range n.RightCols {
		if r.Schema.ColumnIndex(c) < 0 {
			return Props{}, fmt.Errorf("planck: %s: right equi column %q not in %v", n.Label(), c, r.Schema.Names())
		}
	}
	loc := n.Loc()
	if loc == algebra.LocMW {
		// The middleware join is a sort-merge: both inputs must arrive
		// sorted on the equi columns or Next will fail mid-stream.
		if !isOrderPrefix(n.LeftCols, l.Order) {
			return Props{}, fmt.Errorf("planck: %s: left input not sorted on %v (input order %v)",
				n.Label(), n.LeftCols, l.Order)
		}
		if !isOrderPrefix(n.RightCols, r.Order) {
			return Props{}, fmt.Errorf("planck: %s: right input not sorted on %v (input order %v)",
				n.Label(), n.RightCols, r.Order)
		}
	}

	var cols []types.Column
	order := l.Order
	if n.Op == algebra.OpJoin {
		cols = append(append([]types.Column{}, l.Schema.Cols...), r.Schema.Cols...)
	} else {
		// Temporal join: T1/T2 required on both sides; the left pair
		// carries the intersected period, the right pair is dropped.
		lt1, lt2 := algebra.TimeColumns(l.Schema)
		rt1, rt2 := algebra.TimeColumns(r.Schema)
		if lt1 < 0 || lt2 < 0 {
			return Props{}, fmt.Errorf("planck: %s: left input has no T1/T2 in %v", n.Label(), l.Schema.Names())
		}
		if rt1 < 0 || rt2 < 0 {
			return Props{}, fmt.Errorf("planck: %s: right input has no T1/T2 in %v", n.Label(), r.Schema.Names())
		}
		cols = append([]types.Column{}, l.Schema.Cols...)
		for i, c := range r.Schema.Cols {
			if i == rt1 || i == rt2 {
				continue
			}
			cols = append(cols, c)
		}
		// The intersected period is not ordered like the left one: the
		// order ends before it.
		for i, k := range order {
			if j := l.Schema.ColumnIndex(k); j == lt1 || j == lt2 {
				order = order[:i]
				break
			}
		}
	}
	return Props{
		Schema: types.Schema{Cols: cols},
		// Merge joins emit in left-input order (order preserving).
		Order:   regionOrder(loc, order),
		DupFree: false,
		Loc:     loc,
	}, nil
}

func inferTAggr(n *algebra.Node, cat algebra.Catalog) (Props, error) {
	in, err := Infer(n.Left, cat)
	if err != nil {
		return Props{}, err
	}
	t1, t2 := algebra.TimeColumns(in.Schema)
	if t1 < 0 || t2 < 0 {
		return Props{}, fmt.Errorf("planck: %s: input has no T1/T2 in %v", n.Label(), in.Schema.Names())
	}
	var cols []types.Column
	for _, g := range n.GroupBy {
		j := in.Schema.ColumnIndex(g)
		if j < 0 {
			return Props{}, fmt.Errorf("planck: %s: grouping column %q not in %v", n.Label(), g, in.Schema.Names())
		}
		cols = append(cols, types.Column{Name: algebra.Unqualify(g), Kind: in.Schema.Cols[j].Kind})
	}
	cols = append(cols,
		types.Column{Name: "T1", Kind: in.Schema.Cols[t1].Kind},
		types.Column{Name: "T2", Kind: in.Schema.Cols[t2].Kind})
	for _, a := range n.Aggs {
		kind := types.KindInt
		switch a.Fn {
		case "AVG":
			kind = types.KindFloat
		case "SUM", "MIN", "MAX":
			j := in.Schema.ColumnIndex(a.Col)
			if j < 0 {
				return Props{}, fmt.Errorf("planck: %s: aggregate column %q not in %v", n.Label(), a.Col, in.Schema.Names())
			}
			kind = in.Schema.Cols[j].Kind
		case "COUNT":
			// no argument column required
		default:
			return Props{}, fmt.Errorf("planck: %s: unknown aggregate %q", n.Label(), a.Fn)
		}
		cols = append(cols, types.Column{Name: a.OutName(), Kind: kind})
	}

	loc := n.Loc()
	var order []string
	if loc == algebra.LocMW {
		// §3.4: the sweep needs the argument sorted on the grouping
		// attributes and then T1.
		need := append(append([]string{}, n.GroupBy...), "T1")
		if !isOrderPrefix(need, in.Order) {
			return Props{}, fmt.Errorf("planck: %s: input not sorted on %v (input order %v)",
				n.Label(), need, in.Order)
		}
		for _, g := range n.GroupBy {
			order = append(order, algebra.Unqualify(g))
		}
		order = append(order, "T1")
	}
	return Props{Schema: types.Schema{Cols: cols}, Order: order, DupFree: true, Loc: loc}, nil
}

func inferCoalesce(n *algebra.Node, cat algebra.Catalog) (Props, error) {
	in, err := Infer(n.Left, cat)
	if err != nil {
		return Props{}, err
	}
	t1, t2 := algebra.TimeColumns(in.Schema)
	if t1 < 0 || t2 < 0 {
		return Props{}, fmt.Errorf("planck: %s: input has no T1/T2 in %v", n.Label(), in.Schema.Names())
	}
	loc := n.Loc()
	if loc == algebra.LocMW {
		// COALESCE^M merges adjacent value-equivalent periods in one
		// pass: the input must be sorted on every non-time column (any
		// permutation) and then T1.
		var nonTime []string
		for i, c := range in.Schema.Cols {
			if i != t1 && i != t2 {
				nonTime = append(nonTime, c.Name)
			}
		}
		if len(in.Order) < len(nonTime)+1 {
			return Props{}, fmt.Errorf("planck: %s: input order %v too short; need all of %v then T1",
				n.Label(), in.Order, nonTime)
		}
		if !sameColumnSet(in.Order[:len(nonTime)], nonTime) {
			return Props{}, fmt.Errorf("planck: %s: input order %v does not cover the non-time columns %v before T1",
				n.Label(), in.Order, nonTime)
		}
		if !colEq(in.Order[len(nonTime)], in.Schema.Cols[t1].Name) {
			return Props{}, fmt.Errorf("planck: %s: input order %v does not continue with T1 after the non-time columns",
				n.Label(), in.Order)
		}
	}
	// Coalescing maximal periods leaves no two tuples equal on all
	// columns: any such pair would have merged.
	return Props{Schema: in.Schema, Order: regionOrder(loc, in.Order), DupFree: true, Loc: loc}, nil
}

// --- order helpers ---

// regionOrder applies the region rule: DBMS-resident operators bury
// any sort below them in the generated SQL (real DBMSs promise no
// subquery order), so only middleware operators propagate order.
func regionOrder(loc algebra.Location, order []string) []string {
	if loc == algebra.LocDBMS {
		return nil
	}
	return order
}

// projectOrder maps an input order through a projection: the order
// survives as long as its columns are kept, renamed to their output
// names; the first dropped column truncates it.
func projectOrder(in []string, cols []algebra.ProjCol) []string {
	var out []string
	for _, k := range in {
		kept := ""
		for _, pc := range cols {
			if colEq(pc.Src, k) {
				kept = pc.Out()
				break
			}
		}
		if kept == "" {
			break
		}
		out = append(out, kept)
	}
	return out
}

// isOrderPrefix reports whether need is a prefix of order, matching
// column names case-insensitively and tolerating qualifiers.
func isOrderPrefix(need, order []string) bool {
	if len(need) > len(order) {
		return false
	}
	for i := range need {
		if !colEq(need[i], order[i]) {
			return false
		}
	}
	return true
}

// sameColumnSet reports whether a and b contain the same column names
// (qualifier tolerant), in any permutation.
func sameColumnSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, x := range a {
		for j, y := range b {
			if !used[j] && colEq(x, y) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// colEq matches column names case-insensitively, tolerating a
// qualifier on either side.
func colEq(a, b string) bool {
	return strings.EqualFold(a, b) ||
		strings.EqualFold(algebra.Unqualify(a), algebra.Unqualify(b))
}

// sameSchema requires equal length, names, and kinds.
func sameSchema(want, got types.Schema) error {
	if want.Len() != got.Len() {
		return fmt.Errorf("%d columns vs %d (%v vs %v)", want.Len(), got.Len(), want.Names(), got.Names())
	}
	for i := range want.Cols {
		w, g := want.Cols[i], got.Cols[i]
		if !strings.EqualFold(w.Name, g.Name) {
			return fmt.Errorf("column %d named %q vs %q", i, w.Name, g.Name)
		}
		if w.Kind != g.Kind {
			return fmt.Errorf("column %d (%s) kind %v vs %v", i, w.Name, w.Kind, g.Kind)
		}
	}
	return nil
}
