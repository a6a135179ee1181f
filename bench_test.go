// Package repro benchmarks regenerate the paper's tables and figures
// as Go benchmarks — one benchmark family per figure plus ablations
// for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The shapes to look for (absolute numbers depend on the machine):
//
//	Figure 8  — BenchmarkQuery1: the all-DBMS plan is superlinear and
//	            an order of magnitude slower than the middleware plans.
//	Figure 10 — BenchmarkQuery2: plan 2 (TAggr+TJoin in middleware)
//	            wins once the selection period widens; plan 6
//	            deteriorates fastest.
//	Figure 11a — BenchmarkQuery3: the middleware temporal join wins
//	            when the result outgrows the arguments.
//	Figure 11b — BenchmarkQuery4: the DBMS wins regular joins; the
//	            middleware sort-merge stays within a small factor.
package repro

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/bench"
	"tango/internal/rel"
	"tango/internal/wire"
)

// newSystem builds a fresh system for one benchmark configuration.
func newSystem(b *testing.B, posRows, empRows int) *bench.System {
	b.Helper()
	sys, err := bench.NewSystem(bench.Config{
		PositionRows: posRows,
		EmployeeRows: empRows,
		Histograms:   20,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func runPlan(b *testing.B, sys *bench.System, np bench.NamedPlan) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := sys.RunPlan(np)
		if err != nil {
			b.Fatal(err)
		}
		if out.Cardinality() == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkQuery1 regenerates Figure 8 at two POSITION sizes.
func BenchmarkQuery1(b *testing.B) {
	for _, size := range []int{2000, 8000} {
		sys := newSystem(b, size, 50)
		for _, np := range bench.Q1Plans() {
			b.Run(fmt.Sprintf("n=%d/%s", size, np.Name), func(b *testing.B) {
				runPlan(b, sys, np)
			})
		}
	}
}

// BenchmarkQuery2 regenerates Figure 10 at a selective and a relaxed
// period end.
func BenchmarkQuery2(b *testing.B) {
	sys := newSystem(b, 8000, 50)
	for _, year := range []int{1990, 1997} {
		end := bench.Day(year, time.January, 1)
		for _, np := range bench.Q2Plans(end) {
			b.Run(fmt.Sprintf("end=%d/%s", year, np.Name), func(b *testing.B) {
				runPlan(b, sys, np)
			})
		}
	}
}

// BenchmarkQuery3 regenerates Figure 11(a) around the crossover.
func BenchmarkQuery3(b *testing.B) {
	sys := newSystem(b, 8000, 50)
	for _, year := range []int{1992, 1997} {
		cutoff := bench.Day(year, time.January, 1)
		for _, np := range bench.Q3Plans(cutoff) {
			b.Run(fmt.Sprintf("cutoff=%d/%s", year, np.Name), func(b *testing.B) {
				runPlan(b, sys, np)
			})
		}
	}
}

// BenchmarkQuery4 regenerates Figure 11(b).
func BenchmarkQuery4(b *testing.B) {
	for _, size := range []int{2000, 8000} {
		sys := newSystem(b, size, 5000)
		for _, np := range bench.Q4Plans() {
			b.Run(fmt.Sprintf("n=%d/%s", size, np.Name), func(b *testing.B) {
				runPlan(b, sys, np)
			})
		}
	}
}

// BenchmarkSelectivity times the §3.3 estimators (they must be cheap
// enough to run inside optimization) and the optimizer on each of the
// paper's four queries, so an optimizer regression names its query.
func BenchmarkSelectivity(b *testing.B) {
	rows, err := bench.RunSelectivity()
	if err != nil {
		b.Fatal(err)
	}
	if len(rows) != 3 {
		b.Fatal("unexpected selectivity table")
	}
	sys := newSystem(b, 4000, 50)
	end := bench.Day(1996, time.January, 1)
	for _, q := range []struct {
		name    string
		initial *algebra.Node
	}{
		{"optimize-q1", bench.Q1Initial()},
		{"optimize-q2", bench.Q2Initial(end)},
		{"optimize-q3", bench.Q3Initial(end)},
		{"optimize-q4", bench.Q4Initial()},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.MW.Optimize(q.initial.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBulkLoad compares TRANSFER^D's direct-path loader
// against per-row INSERTs (the §3.2 design choice).
func BenchmarkAblationBulkLoad(b *testing.B) {
	sys := newSystem(b, 4000, 50)
	gen := positionsForLoad(sys)
	for _, mode := range []struct {
		name       string
		useInserts bool
	}{{"bulk-load", false}, {"insert-rows", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				name := sys.MW.Conn.TempName()
				if err := sys.MW.Conn.CreateTable(name, gen.Schema); err != nil {
					b.Fatal(err)
				}
				var err error
				if mode.useInserts {
					_, err = sys.MW.Conn.InsertRows(name, gen.Tuples)
				} else {
					_, err = sys.MW.Conn.Load(name, gen.Tuples)
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.MW.Conn.DropTable(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrefetch measures the wire row-prefetch setting's
// effect on TRANSFER^M (the Oracle row-prefetch observation of §3.2):
// fixed row counts, and 0 — the default — where the server sizes each
// fetch by bytes.
func BenchmarkAblationPrefetch(b *testing.B) {
	sys := newSystem(b, 8000, 50)
	for _, prefetch := range []int{0, 1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("prefetch=%d", prefetch), func(b *testing.B) {
			sys.MW.Conn.Prefetch = prefetch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := sys.MW.Conn.QueryAll("SELECT PosID, T1, T2 FROM POSITION")
				if err != nil {
					b.Fatal(err)
				}
				if out.Cardinality() == 0 {
					b.Fatal("empty")
				}
			}
		})
	}
	sys.MW.Conn.Prefetch = 0
}

// BenchmarkAblationLatency shows how a slower middleware–DBMS link
// shifts the transfer-heavy plans (plan 4 of Query 2).
func BenchmarkAblationLatency(b *testing.B) {
	for _, lat := range []struct {
		name string
		l    wire.Latency
	}{
		{"free", wire.Latency{}},
		{"lan", wire.Latency{RoundTrip: 200 * time.Microsecond, BytesPerSecond: 50e6}},
	} {
		sys, err := bench.NewSystem(bench.Config{
			PositionRows: 4000, EmployeeRows: 50, Histograms: 20, Latency: lat.l,
		})
		if err != nil {
			b.Fatal(err)
		}
		end := bench.Day(1990, time.January, 1)
		plans := bench.Q2Plans(end)
		for _, np := range []bench.NamedPlan{plans[1], plans[3]} { // P2 vs P4
			b.Run(lat.name+"/"+np.Name, func(b *testing.B) {
				runPlan(b, sys, np)
			})
		}
	}
}

// positionsForLoad drains a copy of POSITION for the load ablation.
func positionsForLoad(sys *bench.System) *rel.Relation {
	out, _, err := sys.MW.Conn.QueryAll("SELECT * FROM POSITION")
	if err != nil {
		panic(err)
	}
	return out
}
