package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Export     string
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list` with the given arguments in dir and decodes
// the JSON package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Imports,Export,Standard,Incomplete"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listPkg
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// exportLookup builds the importer lookup table (import path → export
// data file) from a `go list -export -deps` run.
type exportLookup map[string]string

func (m exportLookup) open(path string) (io.ReadCloser, error) {
	file, ok := m[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// Load loads, parses, and type-checks the packages matched by the
// patterns (relative to dir; "" means the current directory), plus
// nothing else: dependencies are consumed as compiler export data, so
// a whole-tree run stays fast.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One -deps walk supplies both the target list and the export data
	// for every dependency.
	deps, err := goList(dir, append([]string{"-export", "-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	targets, err := goList(dir, append([]string{"--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	wanted := map[string]bool{}
	for _, t := range targets {
		wanted[t.ImportPath] = true
	}

	exports := exportLookup{}
	byPath := map[string]*listPkg{}
	for _, p := range deps {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exports.open)

	var out []*Package
	for _, path := range topoOrder(wanted, byPath) {
		p := byPath[path]
		if p == nil || p.Standard || p.Name == "" {
			continue
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", path)
		}
		pkg, err := checkPackage(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// topoOrder sorts the wanted packages so that every package follows
// the wanted packages it imports — the order the interprocedural
// summary pipeline needs (callee summaries before callers). Ties and
// cycles (impossible in valid Go) fall back to path order for
// determinism.
func topoOrder(wanted map[string]bool, byPath map[string]*listPkg) []string {
	paths := make([]string, 0, len(wanted))
	for path := range wanted {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var out []string
	var visit func(path string)
	visit = func(path string) {
		if state[path] != 0 {
			return
		}
		state[path] = 1
		if p := byPath[path]; p != nil {
			for _, dep := range p.Imports {
				if wanted[dep] {
					visit(dep)
				}
			}
		}
		state[path] = 2
		out = append(out, path)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

// LoadDir parses and type-checks the single package rooted at dir
// (every non-test .go file), resolving its imports through `go list
// -export`. It exists for analyzer tests over testdata trees, which
// the go tool itself refuses to list.
func LoadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, name)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	var parsed []*ast.File
	importSet := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && path != "unsafe" {
				importSet[path] = true
			}
		}
	}

	exports := exportLookup{}
	if len(importSet) > 0 {
		var imports []string
		for p := range importSet {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		deps, err := goList(dir, append([]string{"-export", "-deps", "--"}, imports...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", exports.open)
	return checkPackageFiles(fset, imp, parsed[0].Name.Name, parsed)
}

// checkPackage parses the named files and type-checks them as one
// package.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	return checkPackageFiles(fset, imp, path, parsed)
}

// checkPackageFiles type-checks already-parsed files.
func checkPackageFiles(fset *token.FileSet, imp types.Importer, path string, parsed []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil && len(typeErrs) == 0 {
		typeErrs = append(typeErrs, err)
	}
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, e := range typeErrs {
			if i == 8 {
				msgs = append(msgs, "...")
				break
			}
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("analysis: type checking %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return &Package{Path: path, Fset: fset, Files: parsed, Types: tpkg, Info: info}, nil
}
