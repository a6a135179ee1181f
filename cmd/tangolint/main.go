// Command tangolint is TANGO's project linter: it runs every analyzer
// of the internal/analysis suite — including the interprocedural
// concurrency analyzers — over the package patterns given on the
// command line, in one serial, uncached pass.
//
// Usage:
//
//	go run ./cmd/tangolint [flags] [packages...]
//
// With no patterns it checks ./... . Flags:
//
//	-json          emit a machine-readable report on stdout
//	-dir path      module directory to analyze (default: cwd)
//
// Exit status contract (relied on by make lint and CI): 0 means a
// clean run, 1 means findings were reported, 2 means the run itself
// failed (bad flags, load or type-check errors). Findings can be
// suppressed at the source line with
//
//	//lint:ignore <analyzer> <why the finding is safe>
//
// or per file with //lint:file-ignore; the reason is mandatory by
// convention, and a suppression matching no finding, or naming no
// analyzer, is itself reported (stalesuppress).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tango/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonReport is the -json output schema, consumed by CI (lint.json).
type jsonReport struct {
	Version   string        `json:"version"`
	Analyzers []string      `json:"analyzers"`
	Packages  int           `json:"packages"`
	ElapsedMs int64         `json:"elapsedMs"`
	Findings  []jsonFinding `json:"findings"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// run is the testable driver body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tangolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit a machine-readable report on stdout")
	dir := fs.String("dir", "", "module directory to analyze (default: current directory)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tangolint [flags] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	start := time.Now()
	pkgs, err := analysis.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "tangolint:", err)
		return 2
	}
	analyzers := analysis.All()
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "tangolint:", err)
		return 2
	}
	elapsed := time.Since(start)

	if *jsonOut {
		report := jsonReport{
			Version:   "1",
			Packages:  len(pkgs),
			ElapsedMs: elapsed.Milliseconds(),
			Findings:  []jsonFinding{},
		}
		for _, a := range analyzers {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "tangolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}

	fmt.Fprintf(stderr, "tangolint: %d finding(s) in %d package(s) in %s\n",
		len(diags), len(pkgs), elapsed.Round(time.Millisecond))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
