package main

// Integration tests for the driver: a throwaway module is written to a
// temp dir and analyzed in-process through run(), asserting the exit
// code contract (0 clean / 1 findings / 2 errors), the -json schema,
// and deterministic finding order.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tango/internal/analysis"
)

const leakySrc = `// Package leaky seeds one violation per concurrency analyzer so the
// driver integration test can assert the full pipeline.
package leaky

import "sync"

//tango:lock-order meta < page

// T mixes an ordered metadata lock with a page latch.
type T struct {
	metaMu sync.Mutex //tango:lock-order meta
	pageMu sync.Mutex //tango:lock-order page latch
}

// Bad inverts the declared order and blocks under the latch.
func (t *T) Bad(ch chan int) {
	t.pageMu.Lock()
	defer t.pageMu.Unlock()
	t.metaMu.Lock()
	ch <- 1
	t.metaMu.Unlock()
}

// Stale carries a suppression that matches nothing.
func Stale() {
	//lint:ignore errlost nothing here drops an error
	_ = 1
}
`

// writeModule lays out a minimal module with one dirty and one clean
// package.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module lintfixture\n\ngo 1.21\n")
	write("leaky/leaky.go", leakySrc)
	write("clean/clean.go", "// Package clean has nothing to report.\npackage clean\n\n// Add adds.\nfunc Add(a, b int) int { return a + b }\n")
	return dir
}

func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDriverExitCodes(t *testing.T) {
	dir := writeModule(t)

	code, out, _ := runDriver(t, "-dir", dir, "./...")
	if code != 1 {
		t.Fatalf("dirty tree: exit %d, want 1\nstdout:\n%s", code, out)
	}
	for _, analyzer := range []string{"latchorder", "lockio", "stalesuppress"} {
		if !strings.Contains(out, "("+analyzer+")") {
			t.Errorf("stdout missing a %s finding:\n%s", analyzer, out)
		}
	}

	// Same invocation, byte-identical output: finding order is part of
	// the contract (CI diffs lint output across runs).
	_, again, _ := runDriver(t, "-dir", dir, "./...")
	if again != out {
		t.Errorf("output not deterministic:\n--- first\n%s\n--- second\n%s", out, again)
	}

	code, out, _ = runDriver(t, "-dir", dir, "./clean")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("clean package: exit %d, stdout %q; want 0 and no findings", code, out)
	}

	broken := filepath.Join(dir, "broken", "broken.go")
	if err := os.MkdirAll(filepath.Dir(broken), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(broken, []byte("package broken\n\nvar X int = \"not an int\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runDriver(t, "-dir", dir, "./broken")
	if code != 2 || !strings.Contains(stderr, "broken") {
		t.Fatalf("package that fails to type-check: exit %d, stderr %q; want 2 naming the package", code, stderr)
	}

	if code, _, _ := runDriver(t, "-not-a-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestDriverJSON(t *testing.T) {
	dir := writeModule(t)

	code, out, _ := runDriver(t, "-dir", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var report jsonReport
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if report.Packages != 2 {
		t.Errorf("report counts %d packages, want 2", report.Packages)
	}
	if len(report.Analyzers) != len(analysis.All()) {
		t.Errorf("report lists %d analyzers, want %d", len(report.Analyzers), len(analysis.All()))
	}
	if len(report.Findings) != 3 {
		t.Errorf("%d findings, want 3 (latchorder, lockio, stalesuppress)\n%s", len(report.Findings), out)
	}
	for _, f := range report.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Message == "" {
			t.Errorf("finding with empty fields: %+v", f)
		}
	}
}
