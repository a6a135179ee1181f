// Command tangobench is the repository's benchmark: four named
// workloads driven in a closed loop through the real TCP path, seven
// end-to-end metrics measured with tracing off, and an outside-in
// per-layer trace taken in a separate run. README.md in this directory
// says what each workload and metric is for.
//
//	tangobench --workload mw_heavy --seed 1 --seconds 20 --trace 0   one run; last stdout line is the result
//	tangobench -seed 1 -out results.json                             every workload, untraced then traced
//	tangobench -aa 5                                                 A/A: five untraced sets, spread per metric
//	tangobench -regen-golden benchmark/golden.json                   rewrite the full-size digests
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	name := flag.String("workload", "", "run one workload and print its result line (default: all workloads)")
	seed := flag.Int64("seed", 1, "seed of the generated data and of the literal streams")
	seconds := flag.Int("seconds", 20, "seconds of measured rounds per run")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
	out := flag.String("out", "", "all-workloads mode: also write the results as JSON to this file")
	aa := flag.Int("aa", 0, "A/A mode: run this many untraced sets of every workload and print the spread")
	regen := flag.String("regen-golden", "", "recompute the full-size digests for the golden seeds, cross-checked against the references, into this file")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "run"), "directory for durable stores and trace files")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *out, *aa, *regen, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "tangobench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string, aa int, regen, scratch string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	golden, err := loadGolden(goldenJSON)
	if err != nil {
		return err
	}
	rc := runConfig{seed: seed, seconds: time.Duration(seconds) * time.Second, scratch: scratch, golden: golden, warmup: warmupRounds}
	switch {
	case regen != "":
		return regenGolden(regen, scratch)
	case aa > 0:
		return runAA(rc, aa)
	case name == "":
		return runAll(rc, out)
	}
	rc.w = findWorkload(name)
	if rc.w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var o *outcome
	if trace != 0 {
		o, err = traced(rc)
	} else {
		o, err = endToEnd(rc)
	}
	if err != nil {
		return err
	}
	printOutcome(rc.w.name, o)
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("%s: %d of %d rounds or checks failed", rc.w.name, o.Failed, o.Attempted)
	}
	return nil
}

// printOutcome lists every metric of a run by name with its unit, the
// sample count and the workload.
func printOutcome(workload string, o *outcome) {
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.Metrics[n]
		fmt.Printf("%-12s %-34s %14.4f %-6s n=%d\n", workload, n, m.Value, m.Unit, o.Attempted)
	}
	fmt.Printf("%-12s %-34s %14d %-6s n=%d\n", workload, "failed", o.Failed, "count", o.Attempted)
	if o.Info != "" {
		fmt.Printf("%-12s %s\n", workload, o.Info)
	}
	for _, note := range o.Notes {
		fmt.Printf("%-12s FAILED: %s\n", workload, note)
	}
}

// runAll is the one command that prints everything: each workload
// untraced (end-to-end metrics) and then traced (per-layer metrics).
func runAll(rc runConfig, out string) error {
	type entry struct {
		EndToEnd *outcome `json:"end_to_end"`
		PerLayer *outcome `json:"per_layer"`
	}
	results := map[string]entry{}
	bad := 0
	for i := range workloads {
		rc.w = &workloads[i]
		e2e, err := endToEnd(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", rc.w.name, err)
		}
		printOutcome(rc.w.name, e2e)
		layers, err := traced(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", rc.w.name, err)
		}
		printOutcome(rc.w.name, layers)
		results[rc.w.name] = entry{e2e, layers}
		bad += e2e.Failed + layers.Failed
	}
	if out != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rounds or checks failed", bad)
	}
	return nil
}

// runAA runs sets untraced sets of every workload on this one binary
// and prints, per metric and workload, the median, the quartiles and
// the interquartile distance as a share of the median: the noise floor
// a bound has to stay above.
func runAA(rc runConfig, sets int) error {
	values := map[string]map[string][]float64{} // workload → metric → per-set value
	for s := 0; s < sets; s++ {
		for i := range workloads {
			rc.w = &workloads[i]
			o, err := endToEnd(rc)
			if err != nil {
				return fmt.Errorf("%s: %w", rc.w.name, err)
			}
			if !o.Correct {
				printOutcome(rc.w.name, o)
				return fmt.Errorf("%s: set %d failed", rc.w.name, s+1)
			}
			if values[rc.w.name] == nil {
				values[rc.w.name] = map[string][]float64{}
			}
			for n, m := range o.Metrics {
				if n == "peak_rss_mb" {
					continue // a high-water mark of this process, which runs every set
				}
				values[rc.w.name][n] = append(values[rc.w.name][n], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", s+1, sets, rc.w.name)
		}
	}
	fmt.Printf("%-12s %-20s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for i := range workloads {
		w := workloads[i].name
		names := make([]string, 0, len(values[w]))
		for n := range values[w] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			q1, _, q3 := quartiles(values[w][n])
			fmt.Printf("%-12s %-20s %12.4f %12.4f %12.4f %7.2f%%\n",
				w, n, q1, median(values[w][n]), q3, 100*relSpread(values[w][n]))
		}
	}
	return nil
}

// regenGolden recomputes golden.json: for every golden seed and
// workload it sets up at full size, cross-checks every static
// statement against its reference (slow: the all-DBMS temporal
// aggregation takes seconds at 12,000 rows) and records the digests.
func regenGolden(path, scratch string) error {
	g := goldenFile{}
	for _, seed := range goldenSeeds {
		byWorkload := map[string]map[string]digest{}
		for i := range workloads {
			w := &workloads[i]
			rc := runConfig{w: w, seed: seed, scratch: scratch}
			digests, err := crossCheckAt(w, seed, rc.dir("golden"))
			if err != nil {
				return fmt.Errorf("seed %d %s: %w", seed, w.name, err)
			}
			byWorkload[w.name] = digests
			fmt.Fprintf(os.Stderr, "seed %d %s: %d digests\n", seed, w.name, len(digests))
		}
		g[fmt.Sprint(seed)] = byWorkload
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
