package bench

import (
	"testing"
	"time"

	"tango/internal/algebra"
	"tango/internal/rel"
	"tango/internal/tango"
	"tango/internal/telemetry"
	"tango/internal/wire"
	"tango/internal/xxl"
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

// runPlanBench executes one plan per iteration through the sequential
// executor. Every T^M reads one batch ahead, so its fetch round trips
// overlap the operators' compute but never each other.
func runPlanBench(b *testing.B, sys *System, np NamedPlan) {
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, Hint: np.Hint,
			CheckPlans: true}
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
// 7, plan 1): the DBMS sorts, TAGGR^M aggregates above the transfer,
// whose cursor reads one batch ahead, so group sweeps overlap the
// fetch round trips.
func BenchmarkQuery1(b *testing.B) {
	sys := newBenchSystem(b, 8400)
	runPlanBench(b, sys, Q1Plans()[0])
}

// BenchmarkQuery1Tracing is BenchmarkQuery1 with the telemetry
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
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := telemetry.NewSpan("query")
		ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, Hint: np.Hint,
			CheckPlans: true, Trace: root, WALProbe: sys.MW.WALProbe}
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
// memory budget, so the sort spills runs; the transfer's cursor reads
// its next batch while a run is sorted and written. The executor's
// sorts always hold xxl.DefaultSortMemory rows, so the benchmark wraps
// the built transfer in its own sort.
func BenchmarkSortM(b *testing.B) {
	sys := newBenchSystem(b, 8400)
	tm := algebra.TM(algebra.ProjectCols(algebra.Scan("POSITION", ""), "PosID", "EmpName", "T1", "T2"))
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := &tango.Executor{Conn: sys.MW.Conn, Cat: sys.MW.Cat, CheckPlans: true}
		in, err := ex.Build(tm.Clone())
		if err != nil {
			b.Fatal(err)
		}
		srt := xxl.NewSort(in, []int{0, 2}) // PosID, T1
		srt.MemTuples = 1024
		out, err := rel.Drain(srt)
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
