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
// cursor-opening call such as Conn.Query — the function must close it
// (a call or defer of Close) or hand ownership away (return it, store
// it in a field, or pass it to another function). It also flags calls
// to NextBatch (or a Reader's Next) after a loop that exhausted the
// iterator, without an intervening re-Open.
//
// Receiver-field iterators are exempt: an iterator stored in a struct
// field is closed by the struct's own Close method, which is checked
// wherever that struct is itself used as a local.
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "check that every opened iterator is closed on all paths",
	Run: (&lifecycle{
		shape:    isIteratorLike,
		acquire:  map[string]bool{"Query": true},
		open:     "Open",
		release:  "Close",
		consume:  map[string]bool{"Next": true, "NextBatch": true},
		acquired: "opened",
		released: "closed",
	}).run,
}

// SpanFinish verifies the create → annotate → Finish lifecycle of
// trace spans (anything shaped like telemetry.Span). An unfinished
// span keeps an open-ended duration, the flight recorder snapshots it
// as un-Done, and the query latency histogram undercounts. For every
// function-local span created by telemetry.NewSpan / NewRemoteSpan or
// by a parent's Child call, the function must finish it (a call or
// defer of Finish) or hand ownership away.
//
// AddChild is exempt: it returns an already-finished child used to
// graft pre-measured durations onto a tree. Spans stored in struct
// fields are finished by whoever owns the struct.
var SpanFinish = &Analyzer{
	Name: "spanfinish",
	Doc:  "check that every created trace span is Finished on all paths",
	Run: (&lifecycle{
		shape:    isSpanLike,
		acquire:  map[string]bool{"NewSpan": true, "NewRemoteSpan": true, "Child": true},
		release:  "Finish",
		noun:     "span ",
		acquired: "created",
		released: "Finished",
	}).run,
}

// lifecycle describes one resource protocol for the shared checker.
// A function-local value of the given shape becomes live at its first
// open call, or else at an acquiring call, and must then reach a
// release: a call of the release method, or an escape (returned,
// stored, passed on), which hands the duty to the new owner at that
// point. Without a deferred release, every return between the value
// becoming live and its first release leaks it. The only return
// forgiven is inside the first error check after a call that can fail
// (one returning an error), where the value never came to life.
//
// The analysis is intraprocedural and path-insensitive: nested
// function literals are walked for uses (a release in a deferred
// closure counts), and their own locals are checked in their own pass.
type lifecycle struct {
	shape    func(types.Type) bool
	acquire  map[string]bool // calls whose result is live and owned by the caller
	open     string          // method that makes the value live; "" when none
	release  string          // method that ends the value's life
	consume  map[string]bool // methods that drain the value (checked after loops)
	noun     string          // message prefix for the value's name
	acquired string          // message verbs
	released string
}

func (lc *lifecycle) run(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					lc.checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				lc.checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

type useKind uint8

const (
	useOpen useKind = iota
	useRelease
	useNext
	useEscape
	useNeutral
)

// use is one classified occurrence of a tracked variable.
type use struct {
	kind     useKind
	method   string // selector name for method-call uses
	pos      token.Pos
	stmtEnd  token.Pos // end of the enclosing block-level statement
	deferred bool
	inLoop   bool
}

// track is the per-variable lifecycle record.
type track struct {
	name       string
	uses       []use
	acquiredAt token.Pos // acquiring call site, or NoPos
	acquireEnd token.Pos
	canFail    bool // the acquiring call returns an error
}

// checkBody analyzes one function body.
func (lc *lifecycle) checkBody(pass *Pass, body *ast.BlockStmt) {
	tracks := map[*types.Var]*track{}
	// tracked resolves an identifier to the record of a function-local
	// (or parameter) variable of the protocol's shape.
	tracked := func(id *ast.Ident) *track {
		obj, _ := pass.Info.Uses[id].(*types.Var)
		if obj == nil {
			obj, _ = pass.Info.Defs[id].(*types.Var)
		}
		if obj == nil || obj.IsField() || obj.Parent() == nil || obj.Parent() == pass.Pkg.Scope() || !lc.shape(obj.Type()) {
			return nil
		}
		t, ok := tracks[obj]
		if !ok {
			t = &track{name: obj.Name()}
			tracks[obj] = t
		}
		return t
	}

	// curStmt is the innermost *block-level* statement being visited;
	// stmtEnd anchors "where does this action's statement end", so an
	// open inside `if err := x.Open(); err != nil { return }` spans the
	// whole if (its error-check return is part of the open).
	var curStmt ast.Stmt
	classify := func(id *ast.Ident, method string, inDefer, inLoop bool) {
		t := tracked(id)
		if t == nil {
			return
		}
		kind := useNeutral
		switch {
		case method == "":
			kind = useEscape
		case method == lc.open:
			kind = useOpen
		case method == lc.release:
			kind = useRelease
		case lc.consume[method]:
			kind = useNext
		}
		end := id.End()
		if curStmt != nil {
			end = curStmt.End()
		}
		t.uses = append(t.uses, use{kind: kind, method: method, pos: id.Pos(), stmtEnd: end, deferred: inDefer, inLoop: inLoop})
	}

	var visit func(n ast.Node, inDefer, inLoop bool)
	visitList := func(list []ast.Stmt, inDefer, inLoop bool) {
		for _, st := range list {
			prev := curStmt
			curStmt = st
			visit(st, inDefer, inLoop)
			curStmt = prev
		}
	}
	visit = func(n ast.Node, inDefer, inLoop bool) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.BlockStmt:
			visitList(s.List, inDefer, inLoop)
			return
		case *ast.CaseClause:
			for _, e := range s.List {
				visit(e, inDefer, inLoop)
			}
			visitList(s.Body, inDefer, inLoop)
			return
		case *ast.CommClause:
			visit(s.Comm, inDefer, inLoop)
			visitList(s.Body, inDefer, inLoop)
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
			visit(s.Body, inDefer, inLoop)
			return
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(s.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					classify(id, sel.Sel.Name, inDefer, inLoop)
					for _, arg := range s.Args {
						visit(arg, inDefer, inLoop)
					}
					return
				}
			}
		case *ast.Ident:
			classify(s, "", inDefer, inLoop)
			return
		case *ast.SelectorExpr:
			// A field or method value of a tracked local is a use by
			// name, not an escape of the value itself.
			if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
				classify(id, s.Sel.Name, inDefer, inLoop)
				return
			}
			visit(s.X, inDefer, inLoop)
			return
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c != n && c != nil {
				visit(c, inDefer, inLoop)
				return false
			}
			return c == n
		})
	}
	visit(body, false, false)

	// Find acquisitions: x, err := c.Query(...), sp := NewSpan(...).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if fn == nil || !lc.acquire[fn.Name()] || !ok {
			return true
		}
		if t := tracked(id); t != nil && t.acquiredAt == token.NoPos {
			sig, _ := fn.Type().(*types.Signature)
			t.acquiredAt, t.acquireEnd, t.canFail = as.Pos(), as.End(), errResultIndex(sig) >= 0
		}
		return true
	})

	for _, t := range tracks {
		lc.decide(pass, body, t)
	}
}

// decide reports lifecycle violations for one variable.
func (lc *lifecycle) decide(pass *Pass, body *ast.BlockStmt, t *track) {
	start, startEnd, canFail := t.acquiredAt, t.acquireEnd, t.canFail
	var opens, nexts []use
	var first *use // earliest release or escape
	deferred := false
	for i, u := range t.uses {
		switch u.kind {
		case useOpen:
			if len(opens) == 0 {
				// Open returns an error (the iterator shape demands it).
				start, startEnd, canFail = u.pos, u.stmtEnd, true
			}
			opens = append(opens, u)
		case useNext:
			nexts = append(nexts, u)
		case useRelease, useEscape:
			deferred = deferred || u.deferred
			if first == nil || u.pos < first.pos {
				first = &t.uses[i]
			}
		}
	}
	if start == token.NoPos {
		return // never made live here (e.g. a parameter): nothing to enforce
	}
	line := func(p token.Pos) int { return pass.Fset.Position(p).Line }
	if first == nil {
		pass.Reportf(start, "%s is %s but never %s in this function", t.name, lc.acquired, lc.released)
		return
	}
	if !deferred && first.pos > startEnd {
		how := "use defer " + t.name + "." + lc.release + "()"
		released := lc.released
		if first.kind == useEscape {
			how, released = "call "+t.name+"."+lc.release+"() on this path", "handed away"
		}
		for _, ret := range leakingReturns(body, startEnd, first.pos, canFail) {
			pass.Reportf(ret, "return leaks %s%s: %s at line %d, %s only at line %d (%s)",
				lc.noun, t.name, lc.acquired, line(start), released, line(first.pos), how)
		}
	}

	// A consuming call after a loop that exhausted the value, with no
	// re-Open in between.
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
				reopened = reopened || (o.pos > consumed.pos && o.pos < after.pos)
			}
			if !reopened {
				pass.Reportf(after.pos, "%s.%s() after the consuming loop at line %d: the iterator is exhausted; re-Open it first",
					t.name, after.method, line(consumed.pos))
				return
			}
		}
	}
}

// leakingReturns lists the return statements that lie wholly between
// two positions, skipping returns inside function literals and, when
// the value's creation can fail, the first error check after it (`if
// err != nil { return err }`, where the value never came to life).
func leakingReturns(body *ast.BlockStmt, after, before token.Pos, canFail bool) []token.Pos {
	var skip *ast.IfStmt
	if canFail {
		ast.Inspect(body, func(n ast.Node) bool {
			if ifs, ok := n.(*ast.IfStmt); ok && ifs.Pos() >= after && (skip == nil || ifs.Pos() < skip.Pos()) && isErrCheck(ifs) {
				skip = ifs
			}
			return true
		})
	}
	var out []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if n.Pos() > after && n.End() <= before && (skip == nil || n.Pos() < skip.Pos() || n.End() > skip.End()) {
				out = append(out, n.Pos())
			}
		}
		return true
	})
	return out
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
			mentions = mentions || name == "err" || name == "ok" || (len(name) > 3 && name[len(name)-3:] == "Err")
		}
		return true
	})
	return mentions
}

// isSpanLike reports whether t follows the telemetry.Span contract:
// Finish() (optionally returning the elapsed duration) and
// Child(name string) returning another span. Matching is structural so
// the analyzer works on any package without importing telemetry.
func isSpanLike(t types.Type) bool {
	fin := methodSig(t, "Finish")
	if fin == nil || fin.Params().Len() != 0 || fin.Results().Len() > 1 {
		return false
	}
	child := methodSig(t, "Child")
	if child == nil || child.Params().Len() != 1 || child.Results().Len() != 1 {
		return false
	}
	b, ok := child.Params().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}
