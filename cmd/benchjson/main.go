// Command benchjson converts `go test -bench` text output on stdin
// into a JSON document on stdout, so benchmark runs can be archived
// and diffed (`make bench-json` writes BENCH_6.json with it).
//
// Each benchmark line becomes one record carrying the iteration
// count, ns/op, B/op, allocs/op, and any custom metrics (rows/s).
// Benchmarks named "<Name>Tracing" are paired with their plain <Name>
// baseline at the same width into an overhead table, so the tracing
// tax is archived next to the numbers it was computed from.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Pkg         string             `json:"pkg,omitempty"`
	Name        string             `json:"name"`
	Procs       int                `json:"procs"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document written to stdout.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
	// Overhead pairs each "<Name>Tracing" benchmark with its plain
	// <Name> baseline at the same GOMAXPROCS:
	// ns/op(tracing) / ns/op(base) - 1. The tracing acceptance bar is
	// 0.05 on Query1.
	Overhead map[string]float64 `json:"overhead,omitempty"`
}

// parseLine parses one "BenchmarkFoo-4  10  123 ns/op ..." line.
func parseLine(pkg, line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Pkg: pkg, Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

func main() {
	var rep Report
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if r, ok := parseLine(pkg, line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// Tracing overhead: "<Name>Tracing" against "<Name>" at equal procs.
	rep.Overhead = map[string]float64{}
	base := map[string]float64{}
	for _, r := range rep.Results {
		if !strings.HasSuffix(r.Name, "Tracing") {
			base[fmt.Sprintf("%s@%d", r.Name, r.Procs)] = r.NsPerOp
		}
	}
	for _, r := range rep.Results {
		name, ok := strings.CutSuffix(r.Name, "Tracing")
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s@%d", name, r.Procs)
		if b := base[key]; b > 0 && r.NsPerOp > 0 {
			rep.Overhead[key] = r.NsPerOp/b - 1
		}
	}
	if len(rep.Overhead) == 0 {
		rep.Overhead = nil
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
