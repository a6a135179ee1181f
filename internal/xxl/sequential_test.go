package xxl

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// TestSequentialOperators pins the middleware's one form per operator:
// no non-test file of the package has a go statement, so every
// operator runs on its consumer's goroutine, and the deprecated
// partitioned constructors build the sequential operators.
func TestSequentialOperators(t *testing.T) {
	bp, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement; xxl's operators are sequential", fset.Position(g.Pos()))
			}
			return true
		})
	}

	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	out := types.NewSchema(append(in.Schema.Cols, types.Column{Name: "N", Kind: types.KindInt})...)
	its := []rel.Iterator{
		NewPTAggr(in.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out, 4),
		NewPMergeJoin(in.Iter(), in.Iter(), []int{0}, []int{0}, 4),
		NewPTJoin(in.Iter(), in.Iter(), []int{0}, []int{0}, 1, 2, 1, 2, 4),
	}
	if _, ok := its[0].(*TAggr); !ok {
		t.Errorf("NewPTAggr built a %T, want *TAggr", its[0])
	}
	if _, ok := its[1].(*MergeJoin); !ok {
		t.Errorf("NewPMergeJoin built a %T, want *MergeJoin", its[1])
	}
	if _, ok := its[2].(*TJoin); !ok {
		t.Errorf("NewPTJoin built a %T, want *TJoin", its[2])
	}
}
