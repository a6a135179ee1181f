package bench

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/optimizer"
	"tango/internal/sqlast"
	"tango/internal/tsql"
	"tango/internal/wire"
)

// newAblationSystem loads a System with 20-bucket histograms and no
// link latency.
func newAblationSystem(b *testing.B, posRows, empRows int) *System {
	b.Helper()
	sys, err := NewSystem(Config{PositionRows: posRows, EmployeeRows: empRows, Histograms: 20})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkSelectivity times the §3.3 estimators (they must be cheap
// enough to run inside optimization) and the optimizer on each of the
// paper's four queries and on the tsql statements of the tangobench
// opt_heavy workload (600/200 rows, 10-bucket histograms), so an
// optimizer regression names its query (the Makefile's OPTBENCH). Each
// optimization also reports the plans it priced (plans/op).
func BenchmarkSelectivity(b *testing.B) {
	rows, err := RunSelectivity()
	if err != nil {
		b.Fatal(err)
	}
	if len(rows) != 3 {
		b.Fatal("unexpected selectivity table")
	}
	sys := newAblationSystem(b, 4000, 50)
	small, err := NewSystem(Config{PositionRows: 600, EmployeeRows: 200, Histograms: 10})
	if err != nil {
		b.Fatal(err)
	}
	end := Day(1996, time.January, 1)
	type query struct {
		name    string
		sys     *System
		initial *algebra.Node
	}
	queries := []query{
		{"optimize-q1", sys, Q1Initial()},
		{"optimize-q2", sys, Q2Initial(end)},
		{"optimize-q3", sys, Q3Initial(end)},
		{"optimize-q4", sys, Q4Initial()},
	}
	for _, g := range planChoiceGolden {
		if g.name == "sel_taggr" || g.name == "tjoin_ordered" || g.name == "join" {
			p, err := tsql.Parse(g.sql, small.MW.Cat)
			if err != nil {
				b.Fatal(err)
			}
			queries = append(queries, query{"optimize-" + g.name, small, p})
		}
	}
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *optimizer.Result
			for i := 0; i < b.N; i++ {
				if res, err = q.sys.MW.Optimize(q.initial.Clone()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.PlansCosted), "plans/op")
		})
	}
}

// BenchmarkAblationBulkLoad compares TRANSFER^D's direct-path loader
// against one INSERT statement per row, each its own round trip (the
// §3.2 design choice).
func BenchmarkAblationBulkLoad(b *testing.B) {
	sys := newAblationSystem(b, 4000, 50)
	gen, _, err := sys.MW.Conn.QueryAll("SELECT * FROM POSITION")
	if err != nil {
		b.Fatal(err)
	}
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
				if mode.useInserts {
					for _, row := range gen.Tuples {
						lits := make([]sqlast.Expr, len(row))
						for j, v := range row {
							lits[j] = sqlast.Literal{Value: v}
						}
						ins := &sqlast.Insert{Table: name, Values: [][]sqlast.Expr{lits}}
						if _, err := sys.MW.Conn.Exec(ins.String()); err != nil {
							b.Fatal(err)
						}
					}
				} else if _, err := sys.MW.Conn.Load(name, gen.Tuples); err != nil {
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
	sys := newAblationSystem(b, 8000, 50)
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
		sys, err := NewSystem(Config{
			PositionRows: 4000, EmployeeRows: 50, Histograms: 20, Latency: lat.l,
		})
		if err != nil {
			b.Fatal(err)
		}
		end := Day(1990, time.January, 1)
		plans := Q2Plans(end)
		for _, np := range []NamedPlan{plans[1], plans[3]} { // P2 vs P4
			b.Run(lat.name+"/"+np.Name, func(b *testing.B) {
				runPlanBench(b, sys, np)
			})
		}
	}
}
