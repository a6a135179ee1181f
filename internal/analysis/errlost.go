package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrLost flags silently dropped errors from lifecycle and wire calls:
//
//   - a statement-position call to Close/Next/NextBatch/Open (or any
//     function in the wire package) whose error result vanishes, e.g.
//     `it.Close()` as its own statement;
//   - a multi-result assignment that keeps the values but blanks the
//     error, e.g. `n, _ := it.NextBatch(dst)` or `batch, _ :=
//     wire.DecodeBatch(p)`.
//
// Two idioms are deliberately allowed: `defer x.Close()` (a cleanup
// path whose error has no handler to reach) and the explicit
// single-result discard `_ = x.Close()`, which is visible
// acknowledgment. Anything subtler needs handling or a
// //lint:ignore errlost comment explaining why the drop is safe.
//
// Exception to the exception: in durability-tagged packages (any file
// carrying a //tango:durability comment) `defer x.Close()` IS a
// finding. On a durability path Close is where buffered writes and
// the final fsync surface their failure — deferring it without
// capturing the error (e.g. into a named return) silently reports a
// torn file as committed.
var ErrLost = &Analyzer{
	Name: "errlost",
	Doc:  "check that errors from Close/Next/NextBatch/Open and wire calls are not dropped",
	Run:  runErrLost,
}

// errLostMethods are the lifecycle methods whose errors must not be
// dropped.
var errLostMethods = map[string]bool{"Close": true, "Next": true, "NextBatch": true, "Open": true}

// errLostPkgSuffixes mark whole packages whose exported functions'
// errors must not be dropped (the serialization boundary: a dropped
// decode error silently truncates a transfer).
var errLostPkgSuffixes = []string{"internal/wire"}

func runErrLost(pass *Pass) error {
	durable := hasDurabilityTag(pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.DeferStmt:
				if !durable {
					return true
				}
				if name, idx := errLostTarget(pass, s.Call); idx >= 0 && calleeName(pass, s.Call) == "Close" {
					pass.Reportf(s.Call.Pos(), "error returned by deferred %s is silently dropped on a durability path: capture it (e.g. `defer func() { err = f.Close() }()`)", name)
				}
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, idx := errLostTarget(pass, call); idx >= 0 {
					pass.Reportf(call.Pos(), "error returned by %s is silently dropped", name)
				}
			case *ast.AssignStmt:
				checkErrLostAssign(pass, s)
			case *ast.GoStmt:
				if name, idx := errLostTarget(pass, s.Call); idx >= 0 {
					pass.Reportf(s.Call.Pos(), "error returned by %s is silently dropped (go statement)", name)
				}
			}
			return true
		})
	}
	return nil
}

// errLostTarget reports whether the call is one whose error must be
// consumed; it returns a display name and the error result index, or
// -1 when the call is not interesting.
func errLostTarget(pass *Pass, call *ast.CallExpr) (string, int) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "", -1
	}
	sig, _ := fn.Type().(*types.Signature)
	idx := errResultIndex(sig)
	if idx < 0 {
		return "", -1
	}
	name := fn.Name()
	interesting := false
	if sig.Recv() != nil && errLostMethods[name] {
		interesting = true
		name = recvTypeName(sig) + "." + name
	}
	if fn.Pkg() != nil {
		for _, suffix := range errLostPkgSuffixes {
			if strings.HasSuffix(fn.Pkg().Path(), suffix) {
				interesting = true
				name = fn.Pkg().Name() + "." + fn.Name()
			}
		}
	}
	if !interesting {
		return "", -1
	}
	return name, idx
}

// checkErrLostAssign flags multi-result assignments that blank the
// error while keeping other results.
func checkErrLostAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, idx := errLostTarget(pass, call)
	if idx < 0 || len(as.Lhs) != idx+1 || len(as.Lhs) < 2 {
		// Single-result `_ = x.Close()` is the sanctioned explicit
		// discard; only multi-result blanking is sneaky.
		return
	}
	errLHS, ok := ast.Unparen(as.Lhs[idx]).(*ast.Ident)
	if !ok || errLHS.Name != "_" {
		return
	}
	// If every result is blanked the drop is as explicit as `_ =`.
	allBlank := true
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
			allBlank = false
			break
		}
	}
	if allBlank {
		return
	}
	pass.Reportf(errLHS.Pos(), "error result of %s assigned to _ while other results are kept", name)
}

// calleeName returns the called function's bare name, or "".
func calleeName(pass *Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass.Info, call); fn != nil {
		return fn.Name()
	}
	return ""
}

// recvTypeName renders the receiver type name of a method signature.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// hasDurabilityTag reports whether any file of the package opts into
// the durability rules with a //tango:durability comment.
func hasDurabilityTag(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == "//tango:durability" {
					return true
				}
			}
		}
	}
	return false
}
