package analysis

import (
	"strings"
	"testing"
)

func TestIterClose(t *testing.T)   { testAnalyzer(t, IterClose, "iterclose") }
func TestErrLost(t *testing.T)     { testAnalyzer(t, ErrLost, "errlost") }
func TestErrLostDur(t *testing.T)  { testAnalyzer(t, ErrLost, "errlostdur") }
func TestAtomicField(t *testing.T) { testAnalyzer(t, AtomicField, "atomicfield") }
func TestFaultPath(t *testing.T)   { testAnalyzer(t, FaultPath, "faultpath") }
func TestSpanFinish(t *testing.T)  { testAnalyzer(t, SpanFinish, "spanfinish") }

func TestLatchOrder(t *testing.T)      { testAnalyzer(t, LatchOrder, "latchorder") }
func TestLatchOrderCycle(t *testing.T) { testAnalyzer(t, LatchOrder, "latchordercycle") }
func TestLockIO(t *testing.T)          { testAnalyzer(t, LockIO, "lockio") }

// TestSuppress exercises file-level ignores and the stale-suppression
// check through the regular fixture harness.
func TestSuppress(t *testing.T) { testAnalyzer(t, ErrLost, "suppress") }

// TestLoadRealPackage proves the go list + export-data loading pipeline
// end to end on a real project package.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("", "tango/internal/rel")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tango/internal/rel" {
		t.Fatalf("loaded %d packages, want exactly tango/internal/rel", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatal("loaded package missing types, info, or files")
	}
	obj := pkg.Types.Scope().Lookup("Iterator")
	if obj == nil {
		t.Fatal("rel.Iterator not found in loaded package scope")
	}
	// The analyzers' structural matcher must accept the real interface.
	if !isIteratorLike(obj.Type()) {
		t.Fatal("rel.Iterator does not satisfy isIteratorLike")
	}
}

// TestRunCleanOnRel is a regression guard: the framework must report
// nothing on a known-clean project package.
func TestRunCleanOnRel(t *testing.T) {
	pkgs, err := Load("", "tango/internal/rel")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		msgs := make([]string, len(diags))
		for i, d := range diags {
			msgs[i] = d.String()
		}
		t.Fatalf("unexpected findings on internal/rel:\n%s", strings.Join(msgs, "\n"))
	}
}
