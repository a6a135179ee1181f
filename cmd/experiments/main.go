// Command experiments regenerates every table and figure of the
// paper's evaluation section (§5) against the synthetic UIS dataset:
//
//	experiments -run q1        Figure 8   (Query 1 plan times vs |POSITION|)
//	experiments -run q2        Figure 10  (Query 2 plan times vs period end)
//	experiments -run q3        Figure 11a (Query 3 plan times vs start cutoff)
//	experiments -run q4        Figure 11b (Query 4 plan times vs |POSITION|)
//	experiments -run sel       §3.3 selectivity worked example
//	experiments -run memo      per-query optimizer classes/elements
//	experiments -run choice    optimizer plan choice vs measured best (Q3)
//	experiments -run q2choice  optimizer choice with/without histograms (Q2)
//	experiments -run adapt     cost-factor feedback convergence
//	experiments -run all       everything
//
// -scale quick (default) runs a ~10x reduced sweep that preserves the
// published shapes; -scale paper runs the full §5.1 sizes (slow — the
// all-DBMS temporal aggregation plans are intentionally superlinear).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tango/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment: q1,q2,q3,q4,sel,memo,choice,q2choice,adapt,all")
	scaleName := flag.String("scale", "quick", "quick or paper")
	flag.Parse()

	var sc bench.Scale
	switch *scaleName {
	case "paper":
		sc = bench.PaperScale()
	case "quick":
		sc = bench.QuickScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	if all || want["sel"] {
		rows, err := bench.RunSelectivity()
		if err != nil {
			fail(err)
		}
		fmt.Println("## Selectivity estimation (§3.3 worked example)")
		fmt.Println("Overlaps(1997-02-01, 1997-02-08) on 100k uniform 7-day periods, 1995–2000")
		fmt.Printf("%-38s %12s %12s %8s\n", "method", "predicted", "actual", "ratio")
		for _, r := range rows {
			ratio := r.Predicted / r.Actual
			fmt.Printf("%-38s %11.3f%% %11.3f%% %7.1fx\n",
				r.Method, 100*r.Predicted, 100*r.Actual, ratio)
		}
		fmt.Println()
	}

	if all || want["memo"] {
		counts, err := bench.RunMemo(sc)
		if err != nil {
			fail(err)
		}
		paper := map[string]string{"Q1": "12/29", "Q2": "142/452", "Q3": "104/301", "Q4": "13/30"}
		fmt.Println("## Optimizer accounting (memo classes/elements beside the paper's Volcano memo)")
		fmt.Printf("%-5s %8s %9s %9s %10s  %s\n", "query", "classes", "elements", "paper", "cost(µs)", "chosen plan")
		for _, c := range counts {
			fmt.Printf("%-5s %8d %9d %9s %10.0f  %s\n", c.Query, c.Classes, c.Elements, paper[c.Query], c.Cost, c.Chosen)
		}
		fmt.Println()
	}

	if all || want["q1"] {
		s, err := bench.RunQ1(sc)
		if err != nil {
			fail(err)
		}
		s.Print()
	}
	if all || want["q2"] {
		s, err := bench.RunQ2(sc, nil)
		if err != nil {
			fail(err)
		}
		s.Print()
	}
	if all || want["q3"] {
		s, err := bench.RunQ3(sc, nil)
		if err != nil {
			fail(err)
		}
		s.Print()
	}
	if all || want["q4"] {
		s, err := bench.RunQ4(sc)
		if err != nil {
			fail(err)
		}
		s.Print()
	}

	if all || want["q2choice"] {
		rows, err := bench.RunQ2Choice(sc, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("## Query 2 optimizer choice by estimator (§5.2 with/without histograms)")
		fmt.Printf("%-10s %-24s %-24s %-24s\n", "period end", "with histograms", "without histograms", "naive")
		for _, r := range rows {
			fmt.Printf("%-10s %-24s %-24s %-24s\n", r.Param, r.WithHist, r.WithoutHist, r.NaiveEstimate)
		}
		fmt.Println()
	}

	if all || want["adapt"] {
		rows, err := bench.RunAdapt(sc, 6)
		if err != nil {
			fail(err)
		}
		fmt.Println("## Adaptive cost factors (p_tm after each executed query)")
		fmt.Printf("%-6s %12s\n", "step", "p_tm (µs/B)")
		for _, r := range rows {
			fmt.Printf("%-6d %12.5f\n", r.Step, r.PTm)
		}
		fmt.Println()
	}

	if all || want["choice"] {
		rows, err := bench.RunChoice(sc, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println("## Optimizer choice vs measured best (Query 3 sweep)")
		fmt.Printf("%-8s %-22s %12s %-22s %12s %8s\n",
			"cutoff", "chosen", "chosen(s)", "best plan", "best(s)", "factor")
		for _, r := range rows {
			fmt.Printf("%-8s %-22s %12.3f %-22s %12.3f %8.2f\n",
				r.Param, r.Chosen, r.ChosenTime.Seconds(),
				r.BestPlan, r.BestTime.Seconds(), r.WithinFactor)
		}
		fmt.Println()
	}
}
