//go:build !race

package eval

import (
	"testing"

	"tango/internal/types"
)

// TestFunctionAllocs: the n-ary functions evaluate their arguments in
// place — the temporal-join SQL computes GREATEST/LEAST once per join
// result row, so a per-row argument slice was a per-row allocation.
func TestFunctionAllocs(t *testing.T) {
	in := types.NewSchema(
		types.Column{Name: "A.T1", Kind: types.KindDate},
		types.Column{Name: "B.T1", Kind: types.KindDate},
	)
	r := types.Tuple{types.Date(10), types.Date(20)}
	for _, src := range []string{
		"GREATEST(A.T1, B.T1)", "LEAST(A.T1, B.T1, 15)",
		"COALESCE(NULL, A.T1)", "MOD(B.T1, 7)", "A.T1 + B.T1",
	} {
		f, err := Compile(parseExpr(t, src), in)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = f(r) }); allocs != 0 {
			t.Errorf("%s: %.0f allocs per row, want 0", src, allocs)
		}
	}
}
