// Package analysis is a small, dependency-free static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, plus the
// project-specific analyzers that machine-check TANGO's iterator,
// error, context, span and locking contracts:
//
//   - iterclose: every opened rel.Iterator-shaped value is Closed on
//     all paths, and NextBatch is not called on an exhausted iterator
//     without re-Open (see lifecycle.go);
//   - errlost: errors from Close/Next/NextBatch/Open and wire-layer
//     calls are not silently dropped;
//   - atomicfield: struct fields touched by both sync/atomic calls and
//     plain loads/stores;
//   - faultpath: wire/client call sites neither sever their caller's
//     context.Context nor classify resilience failures with
//     unwrap-unsafe type assertions (see faultpath.go);
//   - spanfinish: every created telemetry.Span-shaped value is
//     Finished on all paths — the same lifecycle checker as iterclose,
//     with a span descriptor;
//   - latchorder: lock acquisitions respect the //tango:lock-order
//     hierarchy — no re-entry of a held class, no acquisition against
//     the declared partial order — checked through calls via
//     interprocedural effect summaries (see latchorder.go);
//   - lockio: no blocking operation (store/file I/O, WAL sync, wire
//     round trip, unguarded channel op, sleep) is reachable while a
//     latch-class lock is held (see lockio.go).
//
// Each is kept because it alone kills a mutant of the real tree that
// tests, the race detector, the chaos and crash matrices and the
// rel/itertest conformance table all miss; DESIGN.md §4c has the
// mutant table.
//
// The last two are interprocedural: summary.go classifies every
// function into effect events, callgraph.go folds them bottom-up over
// the SCC condensation of the call graph into per-function summaries
// (lock classes acquired, blocking operations reachable), and the
// analyzers replay each function's critical sections against the
// summaries of everything it calls.
//
// The framework loads and type-checks packages with the standard
// library only: `go list -export -json -deps` supplies file lists and
// compiler export data, go/parser and go/types do the rest. Run is the
// one run path: serial, in dependency order, with no cache. Findings
// can be suppressed with a
//
//	//lint:ignore <analyzer> <reason>
//
// comment on the flagged line or the line above it, or for a whole
// file with //lint:file-ignore <analyzer> <reason>. A suppression
// that matches no finding, or names no analyzer, is itself reported
// (analyzer name "stalesuppress"), so silenced findings cannot
// outlive their fix.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in reports and suppressions.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects the package reachable through the pass and reports
	// findings via pass.Reportf.
	Run func(*Pass) error
}

// All returns every analyzer in the suite, in a stable order.
func All() []*Analyzer {
	return []*Analyzer{IterClose, ErrLost, AtomicField, FaultPath, SpanFinish, LatchOrder, LockIO}
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkgInfo *Package
	facts   *pkgFacts
	index   *Index

	diags []Diagnostic
}

// pkg returns the full loaded package behind the pass.
func (p *Pass) pkg() *Package { return p.pkgInfo }

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the packages and returns the combined,
// suppression-filtered findings sorted by position. Packages should
// arrive in dependency order (Load guarantees it) so the
// interprocedural analyzers see dependency summaries; packages
// analyzed in isolation simply see fewer cross-package effects. For
// each package Run computes its effect summaries (installing them for
// downstream packages), runs the analyzers, applies suppressions, and
// reports stale ones.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	ix := NewIndex()
	var out []Diagnostic
	for _, pkg := range pkgs {
		facts := buildPkgFacts(pkg, ix)
		computeSummaries(facts, ix)
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pkgInfo:  pkg,
				facts:    facts,
				index:    ix,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !sup.suppressed(d) {
					out = append(out, d)
				}
			}
		}
		out = append(out, sup.stale(analyzers)...)
	}
	sortDiags(out)
	return out, nil
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// --- suppressions ---

// StaleSuppressName is the analyzer name under which unused
// suppressions are reported. It is a driver-level check, not a
// regular analyzer: it can only be evaluated after every requested
// analyzer has run, and it cannot itself be suppressed.
const StaleSuppressName = "stalesuppress"

// suppression is one //lint:ignore or //lint:file-ignore directive.
type suppression struct {
	analyzer  string
	file      string
	line      int // 0 for file-level directives
	pos       token.Position
	fileLevel bool
	used      bool
}

type suppressionSet struct {
	list []*suppression
}

// collectSuppressions finds //lint:ignore and //lint:file-ignore
// directives. A line directive suppresses findings on its own line
// (trailing comment) and on the following line (own-line comment); a
// file directive suppresses the named analyzer in its whole file.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	sup := &suppressionSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				fileLevel := false
				switch {
				case strings.HasPrefix(text, "lint:file-ignore"):
					fileLevel = true
				case strings.HasPrefix(text, "lint:ignore"):
				default:
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					continue // no analyzer name: malformed, ignore
				}
				pos := fset.Position(c.Pos())
				s := &suppression{analyzer: fields[1], file: pos.Filename, pos: pos, fileLevel: fileLevel}
				if !fileLevel {
					s.line = pos.Line
				}
				sup.list = append(sup.list, s)
			}
		}
	}
	return sup
}

// suppressed reports whether the diagnostic is covered by a directive,
// marking every covering directive as used.
func (s *suppressionSet) suppressed(d Diagnostic) bool {
	hit := false
	for _, sp := range s.list {
		if sp.file != d.Pos.Filename {
			continue
		}
		if sp.analyzer != d.Analyzer && sp.analyzer != "all" {
			continue
		}
		if sp.fileLevel || sp.line == d.Pos.Line || sp.line+1 == d.Pos.Line {
			sp.used = true
			hit = true
		}
	}
	return hit
}

// stale returns a diagnostic for every directive that matched no
// finding. One naming an analyzer in the run set has outlived its
// finding and would hide the next real one; one naming no analyzer at
// all (a typo, or an analyzer since deleted) never suppressed
// anything. Directives for a known analyzer outside the run set are
// left alone.
func (s *suppressionSet) stale(analyzers []*Analyzer) []Diagnostic {
	inSet := map[string]bool{"all": true}
	for _, a := range analyzers {
		inSet[a.Name] = true
	}
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, sp := range s.list {
		if sp.used || (known[sp.analyzer] && !inSet[sp.analyzer]) {
			continue
		}
		form := "//lint:ignore"
		if sp.fileLevel {
			form = "//lint:file-ignore"
		}
		msg := fmt.Sprintf("stale suppression: %s %s matches no finding; delete it", form, sp.analyzer)
		if !known[sp.analyzer] {
			msg = fmt.Sprintf("stale suppression: %s %s names no analyzer; fix or delete it", form, sp.analyzer)
		}
		out = append(out, Diagnostic{Analyzer: StaleSuppressName, Pos: sp.pos, Message: msg})
	}
	return out
}

// --- shared type helpers ---

var errorType = types.Universe.Lookup("error").Type()

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool { return t != nil && types.Identical(t, errorType) }

// methodSig finds a method by name in the method set of t (or *t for
// addressable named types) and returns its signature, or nil.
func methodSig(t types.Type, name string) *types.Signature {
	if t == nil {
		return nil
	}
	for _, typ := range []types.Type{t, pointerTo(t)} {
		if typ == nil {
			continue
		}
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i)
			if m.Obj().Name() != name {
				continue
			}
			if sig, ok := m.Obj().Type().(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// pointerTo returns *t for named non-interface, non-pointer types and
// nil otherwise (the cases where the pointer method set adds methods).
func pointerTo(t types.Type) types.Type {
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return nil
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return nil
	}
	if _, ok := t.(*types.Named); ok {
		return types.NewPointer(t)
	}
	return nil
}

// isIteratorLike reports whether t follows the cursor lifecycle: Open()
// error and Close() error, plus the rel.Iterator protocol
// NextBatch([]T) (int, error) — or the row-at-a-time Next() (T, bool,
// error) of a rel.Reader. Matching is structural so the analyzers work
// on any package (engine cursors, client row sets, test fixtures)
// without importing rel.
func isIteratorLike(t types.Type) bool {
	open := methodSig(t, "Open")
	if open == nil || open.Params().Len() != 0 || open.Results().Len() != 1 ||
		!isErrorType(open.Results().At(0).Type()) {
		return false
	}
	cl := methodSig(t, "Close")
	if cl == nil || cl.Params().Len() != 0 || cl.Results().Len() != 1 ||
		!isErrorType(cl.Results().At(0).Type()) {
		return false
	}
	if nb := methodSig(t, "NextBatch"); nb != nil && nb.Params().Len() == 1 && nb.Results().Len() == 2 {
		_, slice := nb.Params().At(0).Type().Underlying().(*types.Slice)
		n, isBasic := nb.Results().At(0).Type().Underlying().(*types.Basic)
		if slice && isBasic && n.Kind() == types.Int && isErrorType(nb.Results().At(1).Type()) {
			return true
		}
	}
	next := methodSig(t, "Next")
	if next == nil || next.Params().Len() != 0 || next.Results().Len() != 3 {
		return false
	}
	res := next.Results()
	if b, ok := res.At(1).Type().Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return false
	}
	return isErrorType(res.At(2).Type())
}

// callReturnsError reports whether the call's only or last result is
// an error, and returns the index of that result (-1 if none).
func errResultIndex(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	n := sig.Results().Len()
	if n == 0 {
		return -1
	}
	if isErrorType(sig.Results().At(n - 1).Type()) {
		return n - 1
	}
	return -1
}

// calleeFunc resolves the called function or method object of a call
// expression, or nil for calls through function values, conversions,
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
