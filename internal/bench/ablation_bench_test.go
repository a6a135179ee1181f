package bench

import (
	"fmt"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/sqlast"
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
// paper's four queries, so an optimizer regression names its query
// (the Makefile's OPTBENCH).
func BenchmarkSelectivity(b *testing.B) {
	rows, err := RunSelectivity()
	if err != nil {
		b.Fatal(err)
	}
	if len(rows) != 3 {
		b.Fatal("unexpected selectivity table")
	}
	sys := newAblationSystem(b, 4000, 50)
	end := Day(1996, time.January, 1)
	for _, q := range []struct {
		name    string
		initial *algebra.Node
	}{
		{"optimize-q1", Q1Initial()},
		{"optimize-q2", Q2Initial(end)},
		{"optimize-q3", Q3Initial(end)},
		{"optimize-q4", Q4Initial()},
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
				runPlanBench(b, sys, np, 0)
			})
		}
	}
}
