// Package algebra defines the middleware's query algebra: the regular
// operators (scan, selection, projection, sort, join) and the temporal
// operators (temporal join, temporal aggregation, coalescing), plus
// the two transfer operators T^M (DBMS → middleware) and T^D
// (middleware → DBMS) that partition a plan between the two engines.
//
// A query plan is a tree of Nodes. Operators below a T^M (down to the
// leaves or to a T^D) execute in the DBMS and are translated to SQL;
// operators above execute in the middleware. Every complete plan has a
// T^M at the root: results are always delivered to the middleware.
package algebra

import (
	"fmt"
	"strings"

	"tango/internal/sqlast"
	"tango/internal/types"
)

// Op enumerates the algebra operators.
type Op uint8

// Operators.
const (
	OpScan     Op = iota // base relation
	OpSelect             // σ_P
	OpProject            // π_f1..fn (with optional renaming)
	OpSort               // sort_A
	OpJoin               // ⋈ (equi-join)
	OpTJoin              // ⋈^T (equi-join + period overlap, periods intersected)
	OpTAggr              // ξ^T (temporal aggregation)
	OpDupElim            // rdup
	OpCoalesce           // coal (merge value-equivalent adjacent periods)
	OpTM                 // T^M transfer DBMS → middleware
	OpTD                 // T^D transfer middleware → DBMS
)

var opNames = map[Op]string{
	OpScan: "Scan", OpSelect: "Select", OpProject: "Project", OpSort: "Sort",
	OpJoin: "Join", OpTJoin: "TJoin", OpTAggr: "TAggr", OpDupElim: "DupElim",
	OpCoalesce: "Coalesce", OpTM: "TM", OpTD: "TD",
}

// String returns the operator name.
func (op Op) String() string { return opNames[op] }

// Location says where an operator executes.
type Location uint8

// Locations.
const (
	LocDBMS Location = iota
	LocMW
)

// String returns "DBMS" or "MW".
func (l Location) String() string {
	if l == LocMW {
		return "MW"
	}
	return "DBMS"
}

// Agg is one aggregate computed by temporal aggregation. The output
// column is named Fn + "of" + Col (e.g. COUNTofPosID, following the
// paper's example).
type Agg struct {
	Fn  string // COUNT, SUM, AVG, MIN, MAX
	Col string // aggregated attribute
}

// OutName returns the result column name.
func (a Agg) OutName() string { return a.Fn + "of" + unqualify(a.Col) }

// ProjCol is one projection output: source column (or the result of
// keeping a column under a new name).
type ProjCol struct {
	Src string // input column name
	As  string // output name; "" keeps the (unqualified) source name
}

// Out returns the output column name.
func (p ProjCol) Out() string {
	if p.As != "" {
		return p.As
	}
	return unqualify(p.Src)
}

// Node is one operator in a query plan. Exactly the fields relevant to
// Op are set. Plans are trees (no sharing); use Clone before rewriting.
type Node struct {
	Op    Op
	Left  *Node // nil for Scan
	Right *Node // only joins

	// Scan
	Table string
	Alias string // optional; qualifies the scan's column names

	// Select
	Pred sqlast.Expr

	// Project
	Cols []ProjCol

	// Sort
	Keys []string

	// Join / TJoin equi condition: LeftCols[i] = RightCols[i]
	LeftCols  []string
	RightCols []string

	// TAggr
	GroupBy []string
	Aggs    []Agg
}

// --- Constructors ---

// Scan reads a base relation; alias (optional) qualifies columns.
func Scan(table, alias string) *Node { return &Node{Op: OpScan, Table: table, Alias: alias} }

// Select filters by a predicate.
func Select(in *Node, pred sqlast.Expr) *Node { return &Node{Op: OpSelect, Left: in, Pred: pred} }

// Project keeps (and optionally renames) columns.
func Project(in *Node, cols ...ProjCol) *Node { return &Node{Op: OpProject, Left: in, Cols: cols} }

// ProjectCols keeps columns by name without renaming.
func ProjectCols(in *Node, names ...string) *Node {
	cols := make([]ProjCol, len(names))
	for i, n := range names {
		cols[i] = ProjCol{Src: n, As: n}
	}
	return Project(in, cols...)
}

// Sort orders by the given columns (ascending).
func Sort(in *Node, keys ...string) *Node { return &Node{Op: OpSort, Left: in, Keys: keys} }

// Join is an equi-join on pairwise columns.
func Join(l, r *Node, leftCols, rightCols []string) *Node {
	return &Node{Op: OpJoin, Left: l, Right: r, LeftCols: leftCols, RightCols: rightCols}
}

// TJoin is a temporal equi-join: equality on the column pairs plus
// overlap of the [T1, T2) periods; output periods are intersected.
func TJoin(l, r *Node, leftCols, rightCols []string) *Node {
	return &Node{Op: OpTJoin, Left: l, Right: r, LeftCols: leftCols, RightCols: rightCols}
}

// TAggr is temporal aggregation grouped by the given columns.
func TAggr(in *Node, groupBy []string, aggs ...Agg) *Node {
	return &Node{Op: OpTAggr, Left: in, GroupBy: groupBy, Aggs: aggs}
}

// DupElim removes duplicate tuples.
func DupElim(in *Node) *Node { return &Node{Op: OpDupElim, Left: in} }

// Coalesce merges value-equivalent tuples with adjacent or overlapping
// periods.
func Coalesce(in *Node) *Node { return &Node{Op: OpCoalesce, Left: in} }

// TM transfers the input from the DBMS to the middleware.
func TM(in *Node) *Node { return &Node{Op: OpTM, Left: in} }

// TD transfers the input from the middleware to the DBMS.
func TD(in *Node) *Node { return &Node{Op: OpTD, Left: in} }

// --- Catalog ---

// Catalog resolves base-relation schemas (the middleware gets them
// from the DBMS).
type Catalog interface {
	TableSchema(name string) (types.Schema, error)
}

// --- Schema derivation ---

// Schema computes the output schema of the subtree.
func (n *Node) Schema(cat Catalog) (types.Schema, error) {
	var in []types.Schema
	for _, c := range [2]*Node{n.Left, n.Right} {
		if c != nil {
			s, err := c.Schema(cat)
			if err != nil {
				return types.Schema{}, err
			}
			in = append(in, s)
		}
	}
	return n.Derive(cat, in...)
}

// Derive computes the operator's output schema from its inputs'
// schemas (left, then right); the catalog resolves scans.
func (n *Node) Derive(cat Catalog, inputs ...types.Schema) (types.Schema, error) {
	switch n.Op {
	case OpScan:
		s, err := cat.TableSchema(n.Table)
		if err != nil {
			return types.Schema{}, err
		}
		if n.Alias != "" {
			s = s.Qualify(n.Alias)
		}
		return s, nil

	case OpSelect, OpDupElim, OpCoalesce, OpSort, OpTM, OpTD:
		return inputs[0], nil

	case OpProject:
		in := inputs[0]
		cols := make([]types.Column, len(n.Cols))
		for i, pc := range n.Cols {
			j := in.ColumnIndex(pc.Src)
			if j < 0 {
				return types.Schema{}, fmt.Errorf("algebra: project: no column %q in %v", pc.Src, in.Names())
			}
			cols[i] = types.Column{Name: pc.Out(), Kind: in.Cols[j].Kind}
		}
		return types.Schema{Cols: cols}, nil

	case OpJoin:
		return inputs[0].Concat(inputs[1]), nil

	case OpTJoin:
		l, r := inputs[0], inputs[1]
		// Left keeps all columns (T1/T2 carry the intersected period);
		// the right side loses its time columns.
		lt1, lt2 := timeCols(l)
		if lt1 < 0 || lt2 < 0 {
			return types.Schema{}, fmt.Errorf("algebra: temporal join: left input has no T1/T2 in %v", l.Names())
		}
		rt1, rt2 := timeCols(r)
		if rt1 < 0 || rt2 < 0 {
			return types.Schema{}, fmt.Errorf("algebra: temporal join: right input has no T1/T2 in %v", r.Names())
		}
		cols := append([]types.Column{}, l.Cols...)
		for i, c := range r.Cols {
			if i == rt1 || i == rt2 {
				continue
			}
			cols = append(cols, c)
		}
		return types.Schema{Cols: cols}, nil

	case OpTAggr:
		in := inputs[0]
		var cols []types.Column
		for _, g := range n.GroupBy {
			j := in.ColumnIndex(g)
			if j < 0 {
				return types.Schema{}, fmt.Errorf("algebra: taggr: no column %q in %v", g, in.Names())
			}
			cols = append(cols, types.Column{Name: unqualify(g), Kind: in.Cols[j].Kind})
		}
		t1, t2 := timeCols(in)
		if t1 < 0 || t2 < 0 {
			return types.Schema{}, fmt.Errorf("algebra: taggr: input has no T1/T2 in %v", in.Names())
		}
		cols = append(cols,
			types.Column{Name: "T1", Kind: in.Cols[t1].Kind},
			types.Column{Name: "T2", Kind: in.Cols[t2].Kind})
		for _, a := range n.Aggs {
			kind := types.KindInt
			switch a.Fn {
			case "AVG":
				kind = types.KindFloat
			case "SUM", "MIN", "MAX":
				j := in.ColumnIndex(a.Col)
				if j < 0 {
					return types.Schema{}, fmt.Errorf("algebra: taggr: no column %q in %v", a.Col, in.Names())
				}
				kind = in.Cols[j].Kind
			}
			cols = append(cols, types.Column{Name: a.OutName(), Kind: kind})
		}
		return types.Schema{Cols: cols}, nil

	default:
		return types.Schema{}, fmt.Errorf("algebra: unknown op %v", n.Op)
	}
}

// timeCols finds the T1 and T2 columns of a schema (unqualified match;
// the first pair found).
func timeCols(s types.Schema) (t1, t2 int) {
	return s.ColumnIndex("T1"), s.ColumnIndex("T2")
}

// TimeColumns exposes timeCols for the execution and sqlgen layers.
func TimeColumns(s types.Schema) (t1, t2 int) { return timeCols(s) }

func unqualify(name string) string {
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		return name[dot+1:]
	}
	return name
}

// Unqualify strips a column qualifier.
func Unqualify(name string) string { return unqualify(name) }

// --- Location ---

// Loc computes the execution location of this node: middleware if the
// nearest transfer below-or-at this node is a T^M, DBMS otherwise.
// Scan leaves are always in the DBMS. The transfers themselves execute
// at the boundary; we assign T^M to the middleware (it pulls rows) and
// T^D to the DBMS (it creates and loads a table).
func (n *Node) Loc() Location {
	switch n.Op {
	case OpScan:
		return LocDBMS
	case OpTM:
		return LocMW
	case OpTD:
		return LocDBMS
	case OpJoin, OpTJoin:
		// Both inputs must agree for a well-formed plan; the left
		// decides (Validate enforces agreement).
		return n.Left.Loc()
	default:
		return n.Left.Loc()
	}
}

// Validate checks structural plan invariants: transfers alternate
// properly and join inputs are co-located.
func (n *Node) Validate() error {
	switch n.Op {
	case OpScan:
		return nil
	case OpTM:
		if n.Left.Loc() != LocDBMS {
			return fmt.Errorf("algebra: T^M over a middleware-resident input")
		}
	case OpTD:
		if n.Left.Loc() != LocMW {
			return fmt.Errorf("algebra: T^D over a DBMS-resident input")
		}
	case OpJoin, OpTJoin:
		if n.Left.Loc() != n.Right.Loc() {
			return fmt.Errorf("algebra: join inputs in different locations (%v vs %v)",
				n.Left.Loc(), n.Right.Loc())
		}
	}
	if n.Left != nil {
		if err := n.Left.Validate(); err != nil {
			return err
		}
	}
	if n.Right != nil {
		if err := n.Right.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// --- Utilities ---

// Clone deep-copies the subtree (expressions are shared: they are
// immutable value trees).
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Left = n.Left.Clone()
	c.Right = n.Right.Clone()
	c.Cols = append([]ProjCol(nil), n.Cols...)
	c.Keys = append([]string(nil), n.Keys...)
	c.LeftCols = append([]string(nil), n.LeftCols...)
	c.RightCols = append([]string(nil), n.RightCols...)
	c.GroupBy = append([]string(nil), n.GroupBy...)
	c.Aggs = append([]Agg(nil), n.Aggs...)
	return &c
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Left.Walk(fn)
	n.Right.Walk(fn)
}

// Count returns the number of operators in the subtree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Key returns a canonical string for the subtree, usable as an
// identity for memoization and duplicate-plan detection.
func (n *Node) Key() string {
	var b strings.Builder
	n.writeKey(&b)
	return b.String()
}

func (n *Node) writeKey(b *strings.Builder) {
	if n == nil {
		b.WriteString("·")
		return
	}
	b.WriteString(n.Op.String())
	switch n.Op {
	case OpScan:
		fmt.Fprintf(b, "(%s %s)", n.Table, n.Alias)
		return
	case OpSelect:
		fmt.Fprintf(b, "[%s]", strings.ToUpper(n.Pred.String()))
	case OpProject:
		parts := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			parts[i] = c.Src + ">" + c.Out()
		}
		fmt.Fprintf(b, "[%s]", strings.ToUpper(strings.Join(parts, ",")))
	case OpSort:
		fmt.Fprintf(b, "[%s]", strings.ToUpper(strings.Join(n.Keys, ",")))
	case OpJoin, OpTJoin:
		fmt.Fprintf(b, "[%s=%s]",
			strings.ToUpper(strings.Join(n.LeftCols, ",")),
			strings.ToUpper(strings.Join(n.RightCols, ",")))
	case OpTAggr:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = a.Fn + "(" + a.Col + ")"
		}
		fmt.Fprintf(b, "[%s;%s]",
			strings.ToUpper(strings.Join(n.GroupBy, ",")),
			strings.ToUpper(strings.Join(aggs, ",")))
	}
	b.WriteString("(")
	n.Left.writeKey(b)
	if n.Right != nil {
		b.WriteString(",")
		n.Right.writeKey(b)
	}
	b.WriteString(")")
}

// String renders the plan as an indented tree with locations, in the
// style of the paper's figures (SORT^D, TAGGR^M, ...).
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label())
	b.WriteByte('\n')
	n.Left.render(b, depth+1)
	n.Right.render(b, depth+1)
}

// Label is the one-line description of the operator with its location
// superscript.
func (n *Node) Label() string {
	loc := "D"
	if n.Loc() == LocMW {
		loc = "M"
	}
	switch n.Op {
	case OpScan:
		if n.Alias != "" {
			return fmt.Sprintf("SCAN^D %s %s", n.Table, n.Alias)
		}
		return "SCAN^D " + n.Table
	case OpSelect:
		return fmt.Sprintf("FILTER^%s %s", loc, n.Pred)
	case OpProject:
		outs := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			outs[i] = c.Out()
		}
		return fmt.Sprintf("PROJECT^%s %s", loc, strings.Join(outs, ","))
	case OpSort:
		return fmt.Sprintf("SORT^%s %s", loc, strings.Join(n.Keys, ","))
	case OpJoin:
		return fmt.Sprintf("JOIN^%s %s=%s", loc, strings.Join(n.LeftCols, ","), strings.Join(n.RightCols, ","))
	case OpTJoin:
		return fmt.Sprintf("TJOIN^%s %s=%s", loc, strings.Join(n.LeftCols, ","), strings.Join(n.RightCols, ","))
	case OpTAggr:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = a.Fn + "(" + a.Col + ")"
		}
		return fmt.Sprintf("TAGGR^%s by %s: %s", loc, strings.Join(n.GroupBy, ","), strings.Join(aggs, ","))
	case OpDupElim:
		return "DUPELIM^" + loc
	case OpCoalesce:
		return "COALESCE^" + loc
	case OpTM:
		return "TRANSFER^M"
	case OpTD:
		return "TRANSFER^D"
	}
	return "?"
}
