// Package sqlast defines the abstract syntax tree for the SQL subset
// understood by the DBMS engine: SELECT (joins, derived tables,
// GROUP BY, ORDER BY, UNION, DISTINCT, hints), CREATE TABLE, DROP
// TABLE, INSERT, CREATE INDEX, and ANALYZE. The middleware's
// Translator-To-SQL emits text that parses back into these nodes.
package sqlast

import (
	"fmt"
	"strings"

	"tango/internal/types"
)

// Statement is any SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any scalar expression.
type Expr interface {
	expr()
	String() string
}

// --- Expressions ---

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table string // optional
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// Star is the "*" select item (also COUNT(*) argument).
type Star struct{}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binaryOpNames = map[BinaryOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpNames[op] }

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op          BinaryOp
	Left, Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op      string // "NOT" or "-"
	Operand Expr
}

// FuncCall is a function or aggregate call. Distinct applies to
// aggregates (COUNT(DISTINCT x)).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr // Star{} allowed for COUNT(*)
	Distinct bool
}

// Between is x BETWEEN lo AND hi (inclusive).
type Between struct {
	Expr   Expr
	Lo, Hi Expr
	Not    bool
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (ColumnRef) expr()  {}
func (Literal) expr()    {}
func (Star) expr()       {}
func (BinaryExpr) expr() {}
func (UnaryExpr) expr()  {}
func (FuncCall) expr()   {}
func (Between) expr()    {}
func (IsNull) expr()     {}

// String renders the column reference.
func (c ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// String renders the literal as SQL.
func (l Literal) String() string { return l.Value.SQL() }

// String renders "*".
func (Star) String() string { return "*" }

// String renders the expression with full parenthesization.
func (b BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// String renders the unary expression.
func (u UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "NOT (" + u.Operand.String() + ")"
	}
	return "(" + u.Op + u.Operand.String() + ")"
}

// String renders the call.
func (f FuncCall) String() string {
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

// String renders the BETWEEN predicate.
func (b Between) String() string {
	not := ""
	if b.Not {
		not = "NOT "
	}
	return "(" + b.Expr.String() + " " + not + "BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// String renders the IS NULL predicate.
func (n IsNull) String() string {
	if n.Not {
		return "(" + n.Expr.String() + " IS NOT NULL)"
	}
	return "(" + n.Expr.String() + " IS NULL)"
}

// --- Table references ---

// TableRef is an entry in a FROM clause.
type TableRef interface {
	tableRef()
	String() string
}

// TableName references a base table, optionally aliased.
type TableName struct {
	Name  string
	Alias string // optional
}

// Derived is a parenthesized subquery with an alias.
type Derived struct {
	Select *SelectStmt
	Alias  string
}

func (TableName) tableRef() {}
func (Derived) tableRef()   {}

// String renders the table reference.
func (t TableName) String() string {
	if t.Alias != "" {
		return t.Name + " " + t.Alias
	}
	return t.Name
}

// String renders the derived table.
func (d Derived) String() string {
	return "(" + d.Select.String() + ") " + d.Alias
}

// --- Statements ---

// SelectItem is one entry of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string // optional
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinHint requests a join method, mirroring the Oracle hints the
// paper uses in Query 4.
type JoinHint int

// Join hints.
const (
	HintNone JoinHint = iota
	HintNestedLoop
	HintMerge
	HintHash
)

// SelectStmt is a SELECT, possibly with a UNION chain.
type SelectStmt struct {
	Hint     JoinHint
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	// Union, when non-nil, is the right operand of UNION [ALL]. The
	// ORDER BY of the leftmost SELECT applies to the union result.
	Union    *SelectStmt
	UnionAll bool
	// Limit caps the result row count; 0 means no limit.
	Limit int64
}

// CreateTable defines a new table. With IfNotExists, creating a table
// that already exists is not an error and leaves it as it is.
type CreateTable struct {
	Name        string
	Columns     []ColumnDef
	IfNotExists bool
}

// ColumnDef is one column definition.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// DropTable removes a table.
type DropTable struct {
	Name     string
	IfExists bool
}

// Insert adds rows to a table. Either Values or Select is set.
type Insert struct {
	Table   string
	Columns []string // optional
	Values  [][]Expr
	Select  *SelectStmt
}

// CreateIndex builds a secondary index on one column.
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

// Analyze recomputes optimizer statistics for a table.
type Analyze struct {
	Table string
	// HistogramBuckets, when >0, builds height-balanced histograms with
	// that many buckets on every orderable column.
	HistogramBuckets int
}

func (*SelectStmt) stmt()  {}
func (*CreateTable) stmt() {}
func (*DropTable) stmt()   {}
func (*Insert) stmt()      {}
func (*CreateIndex) stmt() {}
func (*Analyze) stmt()     {}

// String renders the SELECT back to SQL.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch s.Hint {
	case HintNestedLoop:
		b.WriteString("/*+ USE_NL */ ")
	case HintMerge:
		b.WriteString("/*+ USE_MERGE */ ")
	case HintHash:
		b.WriteString("/*+ USE_HASH */ ")
	}
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + it.Alias)
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.String())
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if s.Union != nil {
		if s.UnionAll {
			b.WriteString(" UNION ALL ")
		} else {
			b.WriteString(" UNION ")
		}
		b.WriteString(s.Union.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// String renders the CREATE TABLE statement.
func (c *CreateTable) String() string {
	cols := make([]string, len(c.Columns))
	for i, col := range c.Columns {
		cols[i] = col.Name + " " + col.Kind.String()
	}
	ine := ""
	if c.IfNotExists {
		ine = "IF NOT EXISTS "
	}
	return "CREATE TABLE " + ine + c.Name + " (" + strings.Join(cols, ", ") + ")"
}

// String renders the DROP TABLE statement.
func (d *DropTable) String() string {
	ie := ""
	if d.IfExists {
		ie = "IF EXISTS "
	}
	return "DROP TABLE " + ie + d.Name
}

// String renders the INSERT statement.
func (i *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + i.Table)
	if len(i.Columns) > 0 {
		b.WriteString(" (" + strings.Join(i.Columns, ", ") + ")")
	}
	if i.Select != nil {
		b.WriteString(" " + i.Select.String())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for r, row := range i.Values {
		if r > 0 {
			b.WriteString(", ")
		}
		vals := make([]string, len(row))
		for j, v := range row {
			vals[j] = v.String()
		}
		b.WriteString("(" + strings.Join(vals, ", ") + ")")
	}
	return b.String()
}

// String renders the CREATE INDEX statement.
func (c *CreateIndex) String() string {
	return fmt.Sprintf("CREATE INDEX %s ON %s (%s)", c.Name, c.Table, c.Column)
}

// String renders the ANALYZE statement.
func (a *Analyze) String() string {
	if a.HistogramBuckets > 0 {
		return fmt.Sprintf("ANALYZE %s HISTOGRAM %d", a.Table, a.HistogramBuckets)
	}
	return "ANALYZE " + a.Table
}

// Walk visits every expression node in the tree rooted at e, calling
// fn before descending. fn returning false prunes the subtree.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case BinaryExpr:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case UnaryExpr:
		Walk(x.Operand, fn)
	case FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case Between:
		Walk(x.Expr, fn)
		Walk(x.Lo, fn)
		Walk(x.Hi, fn)
	case IsNull:
		Walk(x.Expr, fn)
	}
}

// Conjuncts splits a predicate on top-level ANDs.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// AndAll joins expressions with AND; nil for an empty slice.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = BinaryExpr{Op: OpAnd, Left: out, Right: e}
		}
	}
	return out
}

// HasAggregate reports whether the expression contains an aggregate
// function call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) bool {
		if f, ok := x.(FuncCall); ok && IsAggregateName(f.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// IsAggregateName reports whether the (upper-case) function name is an
// aggregate.
func IsAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}
