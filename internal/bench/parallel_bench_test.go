package bench

import (
	"runtime"
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/tango"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// benchLatency approximates a LAN round trip between the middleware
// and the DBMS. It is installed after loading, so setup runs at
// in-process speed and only the measured queries pay the wire.
var benchLatency = wire.Latency{RoundTrip: benchRT}

const benchRT = 2 * time.Millisecond

// newBenchSystem loads a System at wire speed, then installs the
// benchmark latency.
func newBenchSystem(b *testing.B, posRows int) *System {
	b.Helper()
	sys, err := NewSystem(Config{PositionRows: posRows, EmployeeRows: 50, Histograms: 10})
	if err != nil {
		b.Fatal(err)
	}
	sys.Srv.SetLatency(benchLatency)
	return sys
}

// runPlanBench executes one plan per iteration with Parallelism bound
// to GOMAXPROCS, exactly as the executor's auto setting resolves it —
// so `-cpu 1` measures the sequential algorithms and `-cpu N` (N>1)
// the parallel ones: background sort runs and pipelined partitioned
// aggregation and joins. Every T^M reads one batch ahead at either
// setting, so its fetch round trips overlap the operators' compute but
// never each other; on real cores the partition workers add CPU
// fan-out.
func runPlanBench(b *testing.B, sys *System, np NamedPlan, sortMem int) {
	par := runtime.GOMAXPROCS(0)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, Hint: np.Hint,
			CheckPlans: true, Parallelism: par, SortMemory: sortMem}
		out, err := ex.Run(np.Plan.Clone())
		if err != nil {
			b.Fatal(err)
		}
		rows = out.Cardinality()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 && rows > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/sec, "rows/s")
	}
}

// BenchmarkQuery1 is the paper's Query 1 under its best plan (Figure
// 7, plan 1): the DBMS sorts, TAGGR^M aggregates above the transfer.
// With parallelism the aggregation is the pipelined partitioned
// TAGGR^M fed by a double-buffered transfer whose cursor reads one
// batch ahead, so group sweeps overlap the fetch round trips.
func BenchmarkQuery1(b *testing.B) {
	sys := newBenchSystem(b, 8400)
	runPlanBench(b, sys, Q1Plans()[0], 0)
}

// BenchmarkQuery1Tracing is BenchmarkQuery1 with this PR's telemetry
// pipeline live: a root span per query, trace headers on every wire
// op, per-attempt client spans, DBMS-side remote spans collected and
// stitched, the per-op and end-to-end latency histograms, and a
// flight-recorder snapshot. The registry is attached to the client
// only — not to the engine, whose per-tuple operator instrumentation
// is the separate, pre-existing -metrics cost. The delta against
// BenchmarkQuery1 is the tracing tax; the acceptance bar is <= 5%
// (archived in BENCH_6.json by bench-json).
func BenchmarkQuery1Tracing(b *testing.B) {
	reg := telemetry.NewRegistry()
	sys, err := NewSystem(Config{PositionRows: 8400, EmployeeRows: 50, Histograms: 10,
		Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	sys.Srv.SetLatency(benchLatency)
	sys.MW.Conn.Metrics = reg
	np := Q1Plans()[0]
	par := runtime.GOMAXPROCS(0)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := telemetry.NewSpan("query")
		ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, Hint: np.Hint,
			CheckPlans: true, Parallelism: par, Trace: root, WALProbe: sys.MW.WALProbe}
		out, err := ex.Run(np.Plan.Clone())
		if err != nil {
			b.Fatal(err)
		}
		root.Finish()
		telemetry.Stitch(root, sys.MW.Conn.TakeRemoteSpans(root.TraceID()))
		reg.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets).
			Observe(root.Elapsed().Seconds())
		sys.Flight.Record(root, np.Name, nil)
		rows = out.Cardinality()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 && rows > 0 {
		b.ReportMetric(float64(rows)*float64(b.N)/sec, "rows/s")
	}
}

// BenchmarkSortM is SORT^M over an unsorted transfer with a small
// memory budget, so the sort spills runs. With parallelism the run
// generation happens on background workers while the transfer's
// cursor reads its next batch, hiding the run sorts and writes under
// the wire latency.
func BenchmarkSortM(b *testing.B) {
	sys := newBenchSystem(b, 8400)
	plan := algebra.Sort(algebra.TM(
		algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "EmpName", "T1", "T2")),
		"PosID", "T1")
	runPlanBench(b, sys, NamedPlan{Name: "sortM", Plan: plan}, 1024)
}
