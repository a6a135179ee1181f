package analysis

// Per-function effect summaries: what a function acquires, releases,
// and blocks on. Summaries are computed bottom-up over the call
// graph's SCC condensation (callgraph.go), so a caller's summary
// includes everything reachable through its callees — that is what
// makes latchorder and lockio interprocedural where the other
// analyzers are per-function.
//
// Two //tango:lock-order directive forms feed the model:
//
//	mu sync.Mutex //tango:lock-order bufferpool latch
//
// on a mutex/latch field declares that field's lock class (the
// optional trailing word "latch" marks a latch class: a short critical
// section that must never reach blocking I/O — enforced by lockio),
// and a standalone comment
//
//	//tango:lock-order catalog < bufferpool < store
//
// declares a chain of the lock-acquisition partial order. Chains from
// every analyzed package merge into one global order; acquiring
// against it (or re-entering a held class) is a latchorder finding.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockClassDecl is one annotated mutex field.
type LockClassDecl struct {
	Class string
	Latch bool
}

// OrderEdge is one declared `less < greater` pair with the position of
// its declaration (for diagnostics about the order itself).
type OrderEdge struct {
	Less    string
	Greater string
	Pos     string
}

// BlockEffect is one blocking operation reachable from a function,
// with a witness call path ("f (file:line)" frames, outermost first).
// Unlocked lists lock classes the function provably released before
// the block — the hand-over-hand pattern where a helper drops the
// caller's latch, does the slow work, and relocks (the buffer pool's
// eviction write-back). lockio skips a block whose Unlocked set covers
// the held latch; a block recorded with an empty set is charged
// against every held class.
type BlockEffect struct {
	Kind     string // "store-io", "file-io", "wal-sync", "chan-send", "chan-recv", "sleep", "wait", "net-io"
	Detail   string // e.g. "(*os.File).Sync"
	Path     []string
	Unlocked []string
}

// FuncEffects is the summary of one function: the lock classes it may
// (transitively) acquire and the blocking operations it may reach.
// Witness paths keep diagnostics explainable across package
// boundaries.
type FuncEffects struct {
	Acquires map[string][]string // class -> witness path
	Blocks   []BlockEffect
}

// --- intra-function facts ---

type eventKind uint8

const (
	evAcquire eventKind = iota
	evRelease
	evDeferRelease
	evCall
	evBlock
	evChanOp
)

// funcEvent is one effect-relevant action, in source-position order.
type funcEvent struct {
	kind eventKind
	pos  token.Pos

	class     string      // evAcquire/evRelease/evDeferRelease
	calleeKey string      // evCall (empty when unresolvable)
	block     BlockEffect // evBlock/evChanOp

	// evChanOp
	send    bool
	guarded bool // inside a select with a default or done/ctx case
}

// funcFacts is the per-function record the interprocedural analyzers
// replay: classified events plus the function's direct effects.
type funcFacts struct {
	key    string
	name   string // display name ("(*BufferPool).Fetch")
	events []funcEvent
}

// pkgFacts carries everything summary extraction learned about one
// package.
type pkgFacts struct {
	pkg     *Package
	funcs   map[string]*funcFacts // keyed by summary key
	order   []*funcFacts          // declaration order
	classes map[string]LockClassDecl
	edges   []OrderEdge
}

// funcKey builds the stable cross-package summary key for a function
// object: "pkgpath.Recv.Name" (Recv omitted for plain functions).
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = namedRecvName(sig.Recv().Type()) + "."
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

func namedRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if iface, ok := t.(*types.Interface); ok {
		_ = iface
		return "iface"
	}
	return strings.ReplaceAll(t.String(), " ", "")
}

// fieldLockKey builds the stable key of an annotated lock field:
// "pkgpath.Struct.field". The struct name comes from the enclosing
// type declaration at collection time and from the selection's
// receiver type at use time.
func fieldLockKey(pkgPath, structName, fieldName string) string {
	return pkgPath + "." + structName + "." + fieldName
}

// --- directive collection ---

const lockOrderDirective = "//tango:lock-order"

// collectLockDirectives scans a package for both forms of the
// //tango:lock-order directive. Malformed directives are reported as
// diagnostics by the latchorder analyzer (collected here).
func collectLockDirectives(pkg *Package) (classes map[string]LockClassDecl, edges []OrderEdge, malformed []Diagnostic) {
	classes = map[string]LockClassDecl{}

	// Field-form directives: the comment must be the field's trailing
	// comment (or the line directly above it inside the struct).
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			structName := enclosingTypeName(f, st)
			for _, field := range st.Fields.List {
				var texts []*ast.Comment
				if field.Comment != nil {
					texts = append(texts, field.Comment.List...)
				}
				if field.Doc != nil {
					texts = append(texts, field.Doc.List...)
				}
				for _, c := range texts {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, lockOrderDirective) {
						continue
					}
					rest := stripTrailingComment(strings.TrimSpace(strings.TrimPrefix(text, lockOrderDirective)))
					if strings.Contains(rest, "<") {
						// Chain form on a field line: treat as a chain.
						es, diags := parseOrderChain(pkg, c)
						edges = append(edges, es...)
						malformed = append(malformed, diags...)
						continue
					}
					words := strings.Fields(rest)
					if len(words) == 0 || len(words) > 2 || (len(words) == 2 && words[1] != "latch") || !validClassName(words[0]) {
						malformed = append(malformed, directiveDiag(pkg, c.Pos(),
							"malformed //tango:lock-order directive: want `//tango:lock-order <class> [latch]` on a lock field or `//tango:lock-order a < b < c`"))
						continue
					}
					decl := LockClassDecl{Class: words[0], Latch: len(words) == 2}
					for _, name := range field.Names {
						key := fieldLockKey(pkg.Types.Path(), structName, name.Name)
						classes[key] = decl
					}
				}
			}
			return true
		})
	}

	// Chain-form directives anywhere else in the package.
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, lockOrderDirective) {
					continue
				}
				rest := stripTrailingComment(strings.TrimSpace(strings.TrimPrefix(text, lockOrderDirective)))
				if !strings.Contains(rest, "<") {
					continue // field form, handled above (or malformed there)
				}
				es, diags := parseOrderChain(pkg, c)
				edges = append(edges, es...)
				malformed = append(malformed, diags...)
			}
		}
	}
	return classes, edges, malformed
}

// stripTrailingComment cuts directive text at an embedded `//`, so a
// trailing annotation (fixture want markers, prose) is not parsed as
// part of the directive.
func stripTrailingComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		return strings.TrimSpace(s[:i])
	}
	return s
}

// parseOrderChain parses `//tango:lock-order a < b < c` into edges.
func parseOrderChain(pkg *Package, c *ast.Comment) ([]OrderEdge, []Diagnostic) {
	text := stripTrailingComment(strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c.Text), lockOrderDirective)))
	parts := strings.Split(text, "<")
	var names []string
	for _, p := range parts {
		names = append(names, strings.TrimSpace(p))
	}
	pos := pkg.Fset.Position(c.Pos())
	if len(names) < 2 {
		return nil, []Diagnostic{directiveDiag(pkg, c.Pos(), "malformed //tango:lock-order chain: want at least two classes, e.g. `//tango:lock-order catalog < bufferpool`")}
	}
	var edges []OrderEdge
	for i, name := range names {
		if !validClassName(name) {
			return nil, []Diagnostic{directiveDiag(pkg, c.Pos(), fmt.Sprintf("malformed //tango:lock-order chain: bad class name %q", name))}
		}
		if i > 0 {
			edges = append(edges, OrderEdge{Less: names[i-1], Greater: name, Pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
		}
	}
	return edges, nil
}

func directiveDiag(pkg *Package, pos token.Pos, msg string) Diagnostic {
	return Diagnostic{Analyzer: "latchorder", Pos: pkg.Fset.Position(pos), Message: msg}
}

func validClassName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !(r == '-' || r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
			return false
		}
	}
	return true
}

// enclosingTypeName finds the TypeSpec name whose type contains st.
func enclosingTypeName(f *ast.File, st *ast.StructType) string {
	name := "anon"
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if ts.Pos() <= st.Pos() && st.End() <= ts.End() {
			name = ts.Name.Name
		}
		return true
	})
	return name
}

// --- event extraction ---

// buildPkgFacts classifies every function body in the package into
// events. The index supplies lock-class declarations from dependency
// packages (for cross-package field locks).
func buildPkgFacts(pkg *Package, index *Index) *pkgFacts {
	classes, edges, _ := collectLockDirectives(pkg)
	pf := &pkgFacts{pkg: pkg, funcs: map[string]*funcFacts{}, classes: classes, edges: edges}
	index.addPackageDecls(classes, edges)

	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			ff := &funcFacts{key: funcKey(obj), name: displayFuncName(fn)}
			w := &eventWalker{pkg: pkg, index: index, ff: ff}
			w.walkBody(fn.Body, walkCtx{})
			pf.funcs[ff.key] = ff
			pf.order = append(pf.order, ff)
		}
	}
	return pf
}

func displayFuncName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		t := fn.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
		if idx, ok := t.(*ast.IndexExpr); ok {
			if id, ok := idx.X.(*ast.Ident); ok {
				return "(*" + id.Name + ")." + fn.Name.Name
			}
		}
	}
	return fn.Name.Name
}

// walkCtx carries the syntactic context of the walk.
type walkCtx struct {
	inDefer bool
	guarded bool // inside a select case with a default or done/ctx sibling
}

type eventWalker struct {
	pkg   *Package
	index *Index
	ff    *funcFacts
}

func (w *eventWalker) emit(e funcEvent) { w.ff.events = append(w.ff.events, e) }

// walkBody visits statements in source order, classifying effects.
// Function literals are NOT descended into for the enclosing
// function's event stream (their bodies run elsewhere), and deferred
// literals contribute their Unlock calls as deferred releases.
func (w *eventWalker) walkBody(n ast.Node, ctx walkCtx) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.FuncLit:
		return
	case *ast.GoStmt:
		// The goroutine's own blocking does not block the spawner;
		// only its arguments are evaluated here.
		for _, arg := range s.Call.Args {
			w.walkBody(arg, ctx)
		}
		return
	case *ast.DeferStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			// A deferred closure: its Unlock calls release at exit; its
			// other effects run after the function's own critical
			// sections and are ignored here.
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if class, kind := w.lockOp(call); kind == lockRelease {
						w.emit(funcEvent{kind: evDeferRelease, pos: s.Pos(), class: class})
					}
				}
				return true
			})
			return
		}
		w.walkBody(s.Call, walkCtx{inDefer: true, guarded: ctx.guarded})
		return
	case *ast.SelectStmt:
		guarded := selectIsGuarded(w.pkg.Info, s)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			sub := ctx
			sub.guarded = ctx.guarded || guarded
			// The comm operation itself blocks only as much as the
			// select does; a select with a default never blocks.
			w.walkBody(cc.Comm, sub)
			for _, st := range cc.Body {
				w.walkBody(st, sub)
			}
		}
		return
	case *ast.SendStmt:
		w.walkBody(s.Chan, ctx)
		w.walkBody(s.Value, ctx)
		w.emit(funcEvent{kind: evChanOp, pos: s.Pos(), send: true, guarded: ctx.guarded,
			block: BlockEffect{Kind: "chan-send", Detail: exprString(s.Chan)}})
		return
	case *ast.UnaryExpr:
		if s.Op == token.ARROW {
			w.walkBody(s.X, ctx)
			w.emit(funcEvent{kind: evChanOp, pos: s.Pos(), send: false, guarded: ctx.guarded,
				block: BlockEffect{Kind: "chan-recv", Detail: exprString(s.X)}})
			return
		}
	case *ast.RangeStmt:
		w.walkBody(s.X, ctx)
		if tv, ok := w.pkg.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.emit(funcEvent{kind: evChanOp, pos: s.X.Pos(), send: false, guarded: ctx.guarded,
					block: BlockEffect{Kind: "chan-recv", Detail: "range " + exprString(s.X)}})
			}
		}
		w.walkBody(s.Body, ctx)
		return
	case *ast.CallExpr:
		// Arguments first (evaluation order).
		for _, arg := range s.Args {
			w.walkBody(arg, ctx)
		}
		w.classifyCall(s, ctx)
		return
	}
	// Default: descend to children in source order.
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			w.walkBody(c, ctx)
		}
		return false
	})
}

type lockOpKind int

const (
	lockNone lockOpKind = iota
	lockAcquire
	lockRelease
)

// lockOp classifies a call as an acquire/release of an annotated lock
// class. It matches `recv.field.Lock()` / `Unlock` / `RLock` /
// `RUnlock` / `TryLock` where field carries a //tango:lock-order
// directive (looked up through the global index so cross-package
// fields resolve too).
func (w *eventWalker) lockOp(call *ast.CallExpr) (class string, kind lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", lockNone
	}
	// The operand must be a field selection (x.mu) or a bare
	// identifier resolving to an annotated field var.
	key := w.lockFieldKey(sel.X)
	if key == "" {
		return "", lockNone
	}
	decl, ok := w.index.lockClass(key)
	if !ok {
		return "", lockNone
	}
	return decl.Class, kind
}

// lockFieldKey resolves the expression to an annotated field key, or
// "".
func (w *eventWalker) lockFieldKey(x ast.Expr) string {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	sl, ok := w.pkg.Info.Selections[sel]
	if !ok || sl.Kind() != types.FieldVal {
		return ""
	}
	fieldVar, ok := sl.Obj().(*types.Var)
	if !ok || fieldVar.Pkg() == nil {
		return ""
	}
	recvName := namedRecvName(sl.Recv())
	return fieldLockKey(fieldVar.Pkg().Path(), recvName, fieldVar.Name())
}

// classifyCall emits acquire/release, direct blocking, or plain call
// events for one call expression.
func (w *eventWalker) classifyCall(call *ast.CallExpr, ctx walkCtx) {
	if class, kind := w.lockOp(call); kind != lockNone {
		switch {
		case kind == lockAcquire:
			w.emit(funcEvent{kind: evAcquire, pos: call.Pos(), class: class})
		case ctx.inDefer:
			w.emit(funcEvent{kind: evDeferRelease, pos: call.Pos(), class: class})
		default:
			w.emit(funcEvent{kind: evRelease, pos: call.Pos(), class: class})
		}
		return
	}
	if be, ok := blockingCall(w.pkg.Info, call); ok {
		if !ctx.guarded {
			w.emit(funcEvent{kind: evBlock, pos: call.Pos(), block: be})
		}
		return
	}
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil {
		return
	}
	w.emit(funcEvent{kind: evCall, pos: call.Pos(), calleeKey: funcKey(fn)})
}

// blockingCall reports whether the call is a known directly-blocking
// operation: file/store I/O, durability barriers, sleeps, waits.
// Module-internal blocking (wire round trips, WAL syncs behind
// helpers) is reached transitively through summaries instead.
func blockingCall(info *types.Info, call *ast.CallExpr) (BlockEffect, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return BlockEffect{}, false
	}
	pkgPath := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recv := ""
	if sig != nil && sig.Recv() != nil {
		recv = namedRecvName(sig.Recv().Type())
	}
	detail := fn.Pkg().Name() + "." + name
	if recv != "" {
		detail = "(*" + recv + ")." + name
	}
	switch pkgPath {
	case "time":
		if name == "Sleep" {
			return BlockEffect{Kind: "sleep", Detail: "time.Sleep"}, true
		}
	case "sync":
		// Cond.Wait is deliberately NOT here: it releases its Locker
		// while parked, which is exactly how latch protocols wait for
		// in-flight I/O to settle — flagging it would ban condition
		// variables under latches, their entire purpose.
		if name == "Wait" && recv == "WaitGroup" {
			return BlockEffect{Kind: "wait", Detail: detail}, true
		}
	case "os":
		if recv == "File" {
			switch name {
			case "Read", "ReadAt", "Write", "WriteAt", "Sync", "Truncate":
				return BlockEffect{Kind: "file-io", Detail: detail}, true
			}
		}
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "ReadDir":
			return BlockEffect{Kind: "file-io", Detail: detail}, true
		}
	case "net":
		return BlockEffect{Kind: "net-io", Detail: detail}, true
	}
	// Store-shaped page I/O and durability barriers, wherever the
	// Store-like type is declared (matched by method name + receiver so
	// fixtures with their own Store shapes are covered too).
	if recv != "" {
		switch name {
		case "ReadPage", "WritePage", "AppendPage":
			return BlockEffect{Kind: "store-io", Detail: detail}, true
		case "Sync", "Checkpoint":
			if strings.HasSuffix(pkgPath, "internal/storage") || recvHasPageIO(sig) {
				return BlockEffect{Kind: "wal-sync", Detail: detail}, true
			}
		}
	}
	return BlockEffect{}, false
}

// recvHasPageIO reports whether the method's receiver type also has a
// ReadPage or WritePage method — the structural mark of a Store-shaped
// type, so a fixture's `Sync` counts without importing the real
// storage package.
func recvHasPageIO(sig *types.Signature) bool {
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	return methodSig(t, "ReadPage") != nil || methodSig(t, "WritePage") != nil
}

// selectIsGuarded reports whether the select statement cannot block
// forever on its comm cases: it has a default clause, or one case
// receives from a done-shaped channel (a `Done()`-style call, a
// `chan struct{}`, or `time.After`).
func selectIsGuarded(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default clause
		}
		var recv ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := c.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recv = u.X
			}
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				if u, ok := c.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recv = u.X
				}
			}
		}
		if recv == nil {
			continue
		}
		if isDoneChan(info, recv) {
			return true
		}
	}
	return false
}

// isDoneChan matches done/ctx-shaped channel expressions: a call to a
// method named Done, a call to time.After, or any expression of type
// chan struct{} / <-chan struct{}.
func isDoneChan(info *types.Info, x ast.Expr) bool {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		if fn := calleeFunc(info, call); fn != nil {
			if fn.Name() == "Done" {
				return true
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "time" && (fn.Name() == "After" || fn.Name() == "Tick") {
				return true
			}
		}
	}
	if tv, ok := info.Types[x]; ok {
		if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	return false
}

func exprString(x ast.Expr) string {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return "chan"
	}
}
