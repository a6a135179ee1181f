package engine

import (
	"tango/internal/eval"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// evalFunc evaluates an expression against one input tuple. Expression
// compilation lives in the shared eval package so the middleware's
// FILTER^M algorithm uses exactly the same semantics as the engine.
type evalFunc = eval.Func

func compileExpr(e sqlast.Expr, schema types.Schema) (evalFunc, error) {
	return eval.Compile(e, schema)
}

func inferKind(e sqlast.Expr, schema types.Schema) types.Kind {
	return eval.InferKind(e, schema)
}

func outputName(item sqlast.SelectItem, pos int) string {
	return eval.OutputName(item, pos)
}

func refersOnly(e sqlast.Expr, schema types.Schema) bool {
	return eval.RefersOnly(e, schema)
}

func exprKey(e sqlast.Expr) string { return eval.ExprKey(e) }

func exprColumns(e sqlast.Expr) []string { return eval.ExprColumns(e) }
