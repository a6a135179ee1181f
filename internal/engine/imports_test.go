package engine

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestImportBoundary: the DBMS substitute is built from the layers
// below the middleware — xxl's operators among them — and reaches
// nothing above them; xxl, which both sides run, reaches no
// connection, server or wire code. Imports count from non-test files,
// directly or through other packages of the module.
func TestImportBoundary(t *testing.T) {
	for _, c := range []struct {
		pkg            string
		reaches, never []string
	}{
		{"internal/engine", []string{"internal/xxl"}, []string{"internal/client", "internal/server", "internal/wire",
			"internal/tango", "internal/optimizer", "internal/cost", "internal/stats", "internal/sqlgen", "internal/tsql"}},
		{"internal/xxl", nil, []string{"internal/client", "internal/server", "internal/wire"}},
	} {
		via := moduleImports(t, c.pkg)
		for _, p := range c.reaches {
			if _, ok := via[p]; !ok {
				t.Errorf("%s does not import %s", c.pkg, p)
			}
		}
		for _, p := range c.never {
			if _, ok := via[p]; !ok {
				continue
			}
			chain := p
			for q := via[p]; q != c.pkg; q = via[q] {
				chain = q + " → " + chain
			}
			t.Errorf("%s imports %s (via %s → %s)", c.pkg, p, c.pkg, chain)
		}
	}
}

// moduleImports walks the module packages pkg imports, directly or
// not, and maps each, named by its directory under the module root, to
// the package it was first reached from.
func moduleImports(t *testing.T, pkg string) map[string]string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	via := map[string]string{}
	var visit func(dir string)
	visit = func(dir string) {
		bp, err := build.ImportDir(filepath.Join(root, dir), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range bp.Imports {
			sub, ok := strings.CutPrefix(imp, "tango/")
			if _, seen := via[sub]; ok && !seen {
				via[sub] = dir
				visit(sub)
			}
		}
	}
	visit(pkg)
	return via
}
