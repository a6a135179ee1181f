package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IterClose verifies the Open → NextBatch* → Close lifecycle of
// iterator values (anything shaped like rel.Iterator, or like the
// row-at-a-time rel.Reader with Next). For every function-local
// iterator that is opened in a function — or acquired from a
// cursor-opening call such as Conn.Query — the analyzer requires that
// the function either closes it (a call or defer of Close) or hands
// ownership away (returns it, stores it in a field, or passes it to
// another function). It additionally flags:
//
//   - early returns between a non-deferred Open and its Close, which
//     leak the iterator on error paths (the fix is `defer X.Close()`);
//   - calls to NextBatch (or a Reader's Next) on an iterator after a
//     loop that exhausted it, without an intervening re-Open.
//
// The analysis is intraprocedural, and receiver-field iterators are
// exempt: an iterator stored in a struct field is closed by the
// struct's own Close method, which is checked wherever that struct is
// itself used as a local.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "check that every opened iterator is closed on all paths",
	Run:  runIterClose,
}

// openerNames are methods whose result is an already-open cursor; a
// local acquired from one must be closed even though no explicit Open
// call appears.
var openerNames = map[string]bool{"Query": true}

func runIterClose(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkIterBody(pass, fn.Body)
				}
				return true
			case *ast.FuncLit:
				checkIterBody(pass, fn.Body)
				return true
			}
			return true
		})
	}
	return nil
}

type iterUseKind uint8

const (
	useOpen iterUseKind = iota
	useClose
	useNext
	useEscape
	useNeutral
)

// iterUse is one classified occurrence of a tracked variable.
type iterUse struct {
	kind    iterUseKind
	method  string // selector name for method-call uses ("Next", "NextBatch", ...)
	pos     token.Pos
	stmtEnd token.Pos // end of the enclosing block-level statement
	defer_  bool
	inLoop  bool
}

// iterTrack is the per-variable lifecycle record.
type iterTrack struct {
	obj        *types.Var
	name       string
	uses       []iterUse
	acquiredAt token.Pos // opening acquisition (Query) site, or NoPos
	acquireEnd token.Pos
}

// checkIterBody analyzes one function body. Nested function literals
// are walked for uses (a close inside a deferred closure counts) but
// their own locals are analyzed in their own pass.
func checkIterBody(pass *Pass, body *ast.BlockStmt) {
	tracks := map[*types.Var]*iterTrack{}
	track := func(obj *types.Var) *iterTrack {
		t, ok := tracks[obj]
		if !ok {
			t = &iterTrack{obj: obj, name: obj.Name()}
			tracks[obj] = t
		}
		return t
	}

	// localIterVar resolves an identifier to a function-local (or
	// parameter) iterator-shaped variable.
	localIterVar := func(id *ast.Ident) *types.Var {
		obj, _ := pass.Info.Uses[id].(*types.Var)
		if obj == nil {
			obj, _ = pass.Info.Defs[id].(*types.Var)
		}
		if obj == nil || obj.IsField() || obj.Parent() == nil || obj.Parent() == pass.Pkg.Scope() {
			return nil
		}
		if !isIteratorLike(obj.Type()) {
			return nil
		}
		return obj
	}

	classify := func(id *ast.Ident, sel *ast.SelectorExpr, call *ast.CallExpr, inDefer, inLoop bool, stmtEnd token.Pos) {
		obj := localIterVar(id)
		if obj == nil {
			return
		}
		t := track(obj)
		kind := useEscape
		method := ""
		if sel != nil && call != nil {
			method = sel.Sel.Name
			switch method {
			case "Open":
				kind = useOpen
			case "Close":
				kind = useClose
			case "Next", "NextBatch":
				// Both the tuple-at-a-time and the batch protocol consume
				// the stream; an exhausted iterator is exhausted for both.
				kind = useNext
			default:
				kind = useNeutral
			}
		}
		t.uses = append(t.uses, iterUse{kind: kind, method: method, pos: id.Pos(), stmtEnd: stmtEnd, defer_: inDefer, inLoop: inLoop})
	}

	// curStmt is the innermost *block-level* statement being visited;
	// stmtEnd anchors "where does this action's statement end", so an
	// open inside `if err := x.Open(); err != nil { return }` spans the
	// whole if (its error-check return is part of the open).
	var curStmt ast.Stmt

	var visit func(n ast.Node, inDefer, inLoop bool)
	visitChildren := func(n ast.Node, inDefer, inLoop bool) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if c != nil {
				visit(c, inDefer, inLoop)
			}
			return false
		})
	}
	visit = func(n ast.Node, inDefer, inLoop bool) {
		if n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.BlockStmt:
			for _, st := range s.List {
				prev := curStmt
				curStmt = st
				visit(st, inDefer, inLoop)
				curStmt = prev
			}
			return
		case *ast.CaseClause:
			for _, e := range s.List {
				visit(e, inDefer, inLoop)
			}
			for _, st := range s.Body {
				prev := curStmt
				curStmt = st
				visit(st, inDefer, inLoop)
				curStmt = prev
			}
			return
		case *ast.CommClause:
			visit(s.Comm, inDefer, inLoop)
			for _, st := range s.Body {
				prev := curStmt
				curStmt = st
				visit(st, inDefer, inLoop)
				curStmt = prev
			}
			return
		case *ast.DeferStmt:
			visit(s.Call, true, inLoop)
			return
		case *ast.ForStmt:
			visit(s.Init, inDefer, inLoop)
			visit(s.Cond, inDefer, true)
			visit(s.Post, inDefer, true)
			visit(s.Body, inDefer, true)
			return
		case *ast.RangeStmt:
			visit(s.X, inDefer, inLoop)
			visit(s.Body, inDefer, true)
			return
		case *ast.AssignStmt:
			// Plain identifiers on the left are (re)definitions, not
			// uses; complex left-hand sides (fields, indexes) are.
			for _, lhs := range s.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					visit(lhs, inDefer, inLoop)
				}
			}
			for _, rhs := range s.Rhs {
				visit(rhs, inDefer, inLoop)
			}
			return
		case *ast.ValueSpec:
			for _, v := range s.Values {
				visit(v, inDefer, inLoop)
			}
			return
		case *ast.FuncLit:
			// Record uses (closes in closures count); the literal's own
			// lifecycle analysis happens in its own checkIterBody pass.
			visit(s.Body, inDefer, inLoop)
			return
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if id, ok2 := ast.Unparen(sel.X).(*ast.Ident); ok2 {
					classify(id, sel, s, inDefer, inLoop, stmtEndOr(curStmt, s))
					for _, arg := range s.Args {
						visit(arg, inDefer, inLoop)
					}
					return
				}
			}
			visitChildren(s, inDefer, inLoop)
			return
		case *ast.Ident:
			classify(s, nil, nil, inDefer, inLoop, stmtEndOr(curStmt, s))
			return
		case *ast.SelectorExpr:
			// x.Field / pkg.Name: only the operand can be a local.
			visit(s.X, inDefer, inLoop)
			return
		}
		visitChildren(n, inDefer, inLoop)
	}
	visit(body, false, false)

	// Find opening acquisitions (x, err := c.Query(...)).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !openerNames[fn.Name()] {
			return true
		}
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if obj := localIterVar(id); obj != nil {
			t := track(obj)
			if t.acquiredAt == token.NoPos {
				t.acquiredAt = as.Pos()
				t.acquireEnd = as.End()
			}
		}
		return true
	})

	for _, t := range tracks {
		decideIterTrack(pass, body, t)
	}
}

func stmtEndOr(s ast.Stmt, n ast.Node) token.Pos {
	if s != nil {
		return s.End()
	}
	return n.End()
}

// decideIterTrack reports lifecycle violations for one variable.
func decideIterTrack(pass *Pass, body *ast.BlockStmt, t *iterTrack) {
	var opens, closes, nexts []iterUse
	escaped := false
	for _, u := range t.uses {
		switch u.kind {
		case useOpen:
			opens = append(opens, u)
		case useClose:
			closes = append(closes, u)
		case useNext:
			nexts = append(nexts, u)
		case useEscape:
			escaped = true
		}
	}
	openedAt, openEnd := token.NoPos, token.NoPos
	if len(opens) > 0 {
		openedAt, openEnd = opens[0].pos, opens[0].stmtEnd
	} else if t.acquiredAt != token.NoPos {
		openedAt, openEnd = t.acquiredAt, t.acquireEnd
	}
	if openedAt == token.NoPos {
		return // never opened here: nothing to enforce
	}
	if escaped {
		return // ownership handed away (returned, stored, passed on)
	}
	if len(closes) == 0 {
		pass.Reportf(openedAt, "%s is opened but never closed in this function", t.name)
		return
	}

	deferred := false
	for _, c := range closes {
		if c.defer_ {
			deferred = true
			break
		}
	}
	if !deferred {
		firstClose := closes[0].pos
		for _, c := range closes {
			if c.pos < firstClose {
				firstClose = c.pos
			}
		}
		if firstClose > openEnd {
			if leak := findReturnBetween(body, openEnd, firstClose); leak != token.NoPos {
				pass.Reportf(leak, "return leaks %s: opened at line %d, closed only at line %d (use defer %s.Close())",
					t.name, pass.Fset.Position(openedAt).Line, pass.Fset.Position(firstClose).Line, t.name)
			}
		}
	}

	reportNextAfterLoop(pass, t, opens, nexts)
}

// findReturnBetween locates the first return statement strictly
// between two positions, skipping returns inside function literals and
// the single error-check if that immediately follows the open (`if err
// != nil { return err }`, where the iterator never opened).
func findReturnBetween(body *ast.BlockStmt, after, before token.Pos) token.Pos {
	var skip *ast.IfStmt
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if ifs.Pos() >= after && (skip == nil || ifs.Pos() < skip.Pos()) && isErrCheck(ifs) {
			skip = ifs
		}
		return true
	})
	found := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if ret.Pos() <= after || ret.Pos() >= before {
			return true
		}
		if skip != nil && ret.Pos() >= skip.Pos() && ret.End() <= skip.End() {
			return true // the open's own error check
		}
		if found == token.NoPos || ret.Pos() < found {
			found = ret.Pos()
		}
		return true
	})
	return found
}

// isErrCheck matches `if <cond mentioning an error-ish name> { ...;
// return ... }` with a short body and no else.
func isErrCheck(ifs *ast.IfStmt) bool {
	if ifs.Else != nil || len(ifs.Body.List) == 0 || len(ifs.Body.List) > 2 {
		return false
	}
	if _, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	mentions := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			name := id.Name
			if name == "err" || name == "ok" || (len(name) > 3 && name[len(name)-3:] == "Err") {
				mentions = true
			}
		}
		return true
	})
	return mentions
}

// reportNextAfterLoop flags Next calls positioned after a loop that
// already consumed the iterator, without a re-Open in between.
func reportNextAfterLoop(pass *Pass, t *iterTrack, opens, nexts []iterUse) {
	for _, consumed := range nexts {
		if !consumed.inLoop {
			continue
		}
		for _, after := range nexts {
			if after.inLoop || after.pos <= consumed.stmtEnd {
				continue
			}
			reopened := false
			for _, o := range opens {
				if o.pos > consumed.pos && o.pos < after.pos {
					reopened = true
					break
				}
			}
			if !reopened {
				pass.Reportf(after.pos, "%s.%s() after the consuming loop at line %d: the iterator is exhausted; re-Open it first",
					t.name, after.method, pass.Fset.Position(consumed.pos).Line)
				return
			}
		}
	}
}
