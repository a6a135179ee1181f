package eval

import (
	"fmt"
	"strings"

	"tango/internal/sqlast"
	"tango/internal/types"
)

// Func evaluates an expression against one input tuple.
type Func func(types.Tuple) (types.Value, error)

// compileExpr compiles a scalar expression against a schema. Aggregate
// calls are rejected here; grouping rewrites them first.
func Compile(e sqlast.Expr, schema types.Schema) (Func, error) {
	switch x := e.(type) {
	case sqlast.Literal:
		v := x.Value
		return func(types.Tuple) (types.Value, error) { return v, nil }, nil

	case sqlast.ColumnRef:
		name := x.Name
		if x.Table != "" {
			name = x.Table + "." + x.Name
		}
		i := schema.ColumnIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("eval: unknown column %q in %v", name, schema.Names())
		}
		return func(t types.Tuple) (types.Value, error) { return t[i], nil }, nil

	case sqlast.BinaryExpr:
		left, err := Compile(x.Left, schema)
		if err != nil {
			return nil, err
		}
		right, err := Compile(x.Right, schema)
		if err != nil {
			return nil, err
		}
		return compileBinary(x.Op, left, right)

	case sqlast.UnaryExpr:
		operand, err := Compile(x.Operand, schema)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(t types.Tuple) (types.Value, error) {
				v, err := operand(t)
				if err != nil {
					return types.Null, err
				}
				if v.IsNull() {
					return types.Null, nil
				}
				return types.Bool(!v.AsBool()), nil
			}, nil
		case "-":
			return func(t types.Tuple) (types.Value, error) {
				v, err := operand(t)
				if err != nil {
					return types.Null, err
				}
				return types.Sub(types.Int(0), v), nil
			}, nil
		}
		return nil, fmt.Errorf("eval: unknown unary operator %q", x.Op)

	case sqlast.FuncCall:
		if sqlast.IsAggregateName(x.Name) {
			return nil, fmt.Errorf("eval: aggregate %s outside GROUP BY context", x.Name)
		}
		return compileScalarFunc(x, schema)

	case sqlast.Between:
		operand, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(x.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(x.Hi, schema)
		if err != nil {
			return nil, err
		}
		neg := x.Not
		return func(t types.Tuple) (types.Value, error) {
			v, err := operand(t)
			if err != nil {
				return types.Null, err
			}
			l, err := lo(t)
			if err != nil {
				return types.Null, err
			}
			h, err := hi(t)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() || l.IsNull() || h.IsNull() {
				return types.Null, nil
			}
			in := types.Compare(v, l) >= 0 && types.Compare(v, h) <= 0
			if neg {
				in = !in
			}
			return types.Bool(in), nil
		}, nil

	case sqlast.IsNull:
		operand, err := Compile(x.Expr, schema)
		if err != nil {
			return nil, err
		}
		neg := x.Not
		return func(t types.Tuple) (types.Value, error) {
			v, err := operand(t)
			if err != nil {
				return types.Null, err
			}
			return types.Bool(v.IsNull() != neg), nil
		}, nil

	case sqlast.Star:
		return nil, fmt.Errorf("eval: * is not a scalar expression")

	default:
		return nil, fmt.Errorf("eval: cannot compile %T", e)
	}
}

func compileBinary(op sqlast.BinaryOp, left, right Func) (Func, error) {
	switch op {
	case sqlast.OpAnd:
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && !l.AsBool() {
				return types.Bool(false), nil
			}
			r, err := right(t)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && !r.AsBool() {
				return types.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.Bool(true), nil
		}, nil
	case sqlast.OpOr:
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && l.AsBool() {
				return types.Bool(true), nil
			}
			r, err := right(t)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && r.AsBool() {
				return types.Bool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.Bool(false), nil
		}, nil
	}

	var arith func(a, b types.Value) types.Value
	switch op {
	case sqlast.OpAdd:
		arith = types.Add
	case sqlast.OpSub:
		arith = types.Sub
	case sqlast.OpMul:
		arith = types.Mul
	case sqlast.OpDiv:
		arith = types.Div
	}
	if arith != nil {
		return func(t types.Tuple) (types.Value, error) {
			l, err := left(t)
			if err != nil {
				return types.Null, err
			}
			r, err := right(t)
			if err != nil {
				return types.Null, err
			}
			return arith(l, r), nil
		}, nil
	}

	var test func(c int) bool
	switch op {
	case sqlast.OpEq:
		test = func(c int) bool { return c == 0 }
	case sqlast.OpNe:
		test = func(c int) bool { return c != 0 }
	case sqlast.OpLt:
		test = func(c int) bool { return c < 0 }
	case sqlast.OpLe:
		test = func(c int) bool { return c <= 0 }
	case sqlast.OpGt:
		test = func(c int) bool { return c > 0 }
	case sqlast.OpGe:
		test = func(c int) bool { return c >= 0 }
	default:
		return nil, fmt.Errorf("eval: unknown operator %v", op)
	}
	return func(t types.Tuple) (types.Value, error) {
		l, err := left(t)
		if err != nil {
			return types.Null, err
		}
		r, err := right(t)
		if err != nil {
			return types.Null, err
		}
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.Bool(test(types.Compare(l, r))), nil
	}, nil
}

func compileScalarFunc(x sqlast.FuncCall, schema types.Schema) (Func, error) {
	args := make([]Func, len(x.Args))
	for i, a := range x.Args {
		f, err := Compile(a, schema)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	// fold evaluates every argument in order and combines the values
	// left to right, stopping at the first error.
	fold := func(combine func(acc, v types.Value) types.Value) Func {
		return func(t types.Tuple) (types.Value, error) {
			acc, err := args[0](t)
			if err != nil {
				return types.Null, err
			}
			for _, f := range args[1:] {
				v, err := f(t)
				if err != nil {
					return types.Null, err
				}
				acc = combine(acc, v)
			}
			return acc, nil
		}
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("eval: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "GREATEST":
		if len(args) < 2 {
			return nil, fmt.Errorf("eval: GREATEST needs at least 2 arguments")
		}
		return fold(types.Greatest), nil
	case "LEAST":
		if len(args) < 2 {
			return nil, fmt.Errorf("eval: LEAST needs at least 2 arguments")
		}
		return fold(types.Least), nil
	case "ABS":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Value, error) {
			v, err := args[0](t)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			if v.Kind() == types.KindFloat {
				f := v.AsFloat()
				if f < 0 {
					f = -f
				}
				return types.Float(f), nil
			}
			n := v.AsInt()
			if n < 0 {
				n = -n
			}
			return types.Int(n), nil
		}, nil
	case "LENGTH":
		if err := arity(1); err != nil {
			return nil, err
		}
		return func(t types.Tuple) (types.Value, error) {
			v, err := args[0](t)
			if err != nil || v.IsNull() {
				return types.Null, err
			}
			return types.Int(int64(len(v.AsString()))), nil
		}, nil
	case "COALESCE":
		if len(args) == 0 {
			return func(types.Tuple) (types.Value, error) { return types.Null, nil }, nil
		}
		return fold(func(acc, v types.Value) types.Value {
			if acc.IsNull() {
				return v
			}
			return acc
		}), nil
	case "MOD":
		if err := arity(2); err != nil {
			return nil, err
		}
		return fold(func(a, b types.Value) types.Value {
			if a.IsNull() || b.IsNull() || b.AsInt() == 0 {
				return types.Null
			}
			return types.Int(a.AsInt() % b.AsInt())
		}), nil
	}
	return nil, fmt.Errorf("eval: unknown function %s", x.Name)
}

// inferKind guesses the result kind of an expression against a schema;
// used to type derived-table and result columns.
func InferKind(e sqlast.Expr, schema types.Schema) types.Kind {
	switch x := e.(type) {
	case sqlast.Literal:
		return x.Value.Kind()
	case sqlast.ColumnRef:
		name := x.Name
		if x.Table != "" {
			name = x.Table + "." + x.Name
		}
		if i := schema.ColumnIndex(name); i >= 0 {
			return schema.Cols[i].Kind
		}
		return types.KindNull
	case sqlast.BinaryExpr:
		switch x.Op {
		case sqlast.OpAnd, sqlast.OpOr, sqlast.OpEq, sqlast.OpNe,
			sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe:
			return types.KindBool
		}
		lk, rk := InferKind(x.Left, schema), InferKind(x.Right, schema)
		if lk == types.KindFloat || rk == types.KindFloat {
			return types.KindFloat
		}
		if x.Op == sqlast.OpAdd || x.Op == sqlast.OpSub {
			if lk == types.KindDate && rk != types.KindDate {
				return types.KindDate
			}
		}
		return types.KindInt
	case sqlast.UnaryExpr:
		if x.Op == "NOT" {
			return types.KindBool
		}
		return InferKind(x.Operand, schema)
	case sqlast.FuncCall:
		switch x.Name {
		case "COUNT", "LENGTH", "MOD":
			return types.KindInt
		case "AVG":
			return types.KindFloat
		case "SUM", "MIN", "MAX", "GREATEST", "LEAST", "ABS", "COALESCE":
			if len(x.Args) > 0 {
				return InferKind(x.Args[0], schema)
			}
			return types.KindNull
		}
		return types.KindNull
	case sqlast.Between, sqlast.IsNull:
		return types.KindBool
	default:
		return types.KindNull
	}
}

// outputName picks a result column name for a select item.
func OutputName(item sqlast.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if cr, ok := item.Expr.(sqlast.ColumnRef); ok {
		return cr.Name
	}
	if f, ok := item.Expr.(sqlast.FuncCall); ok {
		return f.Name
	}
	return fmt.Sprintf("COL%d", pos+1)
}

// exprColumns collects the column names referenced by an expression.
func ExprColumns(e sqlast.Expr) []string {
	var out []string
	sqlast.Walk(e, func(x sqlast.Expr) bool {
		if cr, ok := x.(sqlast.ColumnRef); ok {
			out = append(out, cr.String())
		}
		return true
	})
	return out
}

// refersOnly reports whether every column referenced by e resolves in
// the schema.
func RefersOnly(e sqlast.Expr, schema types.Schema) bool {
	ok := true
	for _, c := range ExprColumns(e) {
		if schema.ColumnIndex(c) < 0 {
			ok = false
		}
	}
	return ok
}

// exprKey is a canonical string for expression identity (used to match
// GROUP BY expressions and aggregate calls during rewrite).
func ExprKey(e sqlast.Expr) string { return strings.ToUpper(e.String()) }
