// Package bench is the experiment harness behind cmd/experiments and
// the repository's benchmarks: it assembles a full system (DBMS +
// middleware) over the synthetic UIS data, defines the paper's four
// evaluation queries with the exact plan alternatives of §5.2, and
// runs the parameter sweeps that regenerate every figure of the
// evaluation section.
package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/fault"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/storage"
	"tango/internal/tango"
	"tango/internal/telemetry"
	"tango/internal/uis"
	"tango/internal/wire"
)

// System is one DBMS-plus-middleware instance loaded with UIS data.
type System struct {
	DB  *engine.DB
	Srv *server.Server
	MW  *tango.Middleware
	// Metrics is the registry wired through every layer (nil when
	// Config.Metrics was nil).
	Metrics *telemetry.Registry

	PositionRows int
	EmployeeRows int

	// Flight is the system's flight recorder (nil unless Config.Trace).
	Flight *telemetry.Flight
	// Collector holds DBMS-side spans awaiting stitching (nil unless
	// Config.Trace).
	Collector *telemetry.Collector
	// PreCrashFlight holds the flight entries recovered from a previous
	// process's flight.jsonl when a durable directory was reopened with
	// tracing on (nil otherwise) — the queries that were in flight when
	// the engine died.
	PreCrashFlight []telemetry.FlightEntry

	// Recovery describes what storage recovery did when Config.DataDir
	// reopened an existing database (nil for in-memory systems).
	Recovery *storage.RecoveryStats
	// Reopened reports that DataDir already held the UIS tables: the
	// load was skipped and statistics were recomputed from the
	// recovered heaps.
	Reopened bool

	// opts are the middleware options the system was built with, so
	// NewSessionMW can open additional sessions configured identically.
	opts tango.Options
}

// Config sizes and tunes a System.
type Config struct {
	PositionRows int // ≤0: paper full size (83,857)
	EmployeeRows int // ≤0: paper full size (49,972)
	// Latency is the simulated network between middleware and DBMS;
	// zero means in-process speed.
	Latency wire.Latency
	// Histograms controls ANALYZE histogram buckets (0 disables — the
	// Query 2 with/without comparison).
	Histograms int
	// Calibrate runs cost-factor calibration (with the given sample
	// rows) after loading.
	Calibrate int
	// Metrics, when set, is wired through every layer: engine operator
	// series and storage gauges, server traffic counters, client wire
	// counters, and middleware operator/optimizer/Q-error series. The
	// middleware's IOProbe is pointed at the embedded engine so query
	// traces carry per-query I/O deltas.
	Metrics *telemetry.Registry
	// Retry configures the client connection's wire resilience layer
	// (retries, per-call deadlines, backoff); zero disables it.
	Retry client.RetryPolicy
	// Faults, when non-nil, is the fault injector of every plane. It is
	// armed on the store at open — read and write traps fail page I/O,
	// and with DataDir wal and page traps kill the store at that
	// physical write — and on the server after the initial data load,
	// which must run clean of wire faults. Injected wire faults are
	// exported to Metrics as tango_wire_injected_faults_total{op,kind}.
	Faults *fault.Injector
	// DataDir, when non-empty, opens a durable, crash-recoverable DBMS
	// in the directory instead of the in-memory default. A directory
	// that already holds the UIS tables is reopened: WAL recovery runs,
	// the data load is skipped, and statistics are recomputed from the
	// recovered heaps.
	DataDir string
	// CheckpointBytes overrides the durable store's auto-checkpoint
	// WAL threshold (DataDir only); 0 keeps the storage default,
	// negative disables automatic checkpoints.
	CheckpointBytes int64
	// Trace enables end-to-end distributed tracing: a span collector is
	// attached to the server (so DBMS-side op spans are stitched into
	// every query's span tree) and a flight recorder retains the last
	// FlightSize query traces. With DataDir set, the flight log is
	// persisted to <DataDir>/flight.jsonl and a reopen loads the
	// previous process's log into PreCrashFlight, linking it to the
	// recovery span.
	Trace bool
	// FlightSize caps the flight recorder ring (0 = default 64).
	FlightSize int
}

// NewSystem builds, loads, and (optionally) calibrates a system.
func NewSystem(cfg Config) (*System, error) {
	var (
		db     *engine.DB
		rstats *storage.RecoveryStats
	)
	if cfg.Faults != nil && cfg.Metrics != nil {
		reg := cfg.Metrics
		cfg.Faults.OnFault = func(op fault.Op, kind fault.Kind) {
			reg.Counter("tango_wire_injected_faults_total",
				telemetry.Labels{"op": op.String(), "kind": kind.String()}).Inc()
		}
	}
	if cfg.DataDir != "" {
		var err error
		db, rstats, err = engine.OpenAt(cfg.DataDir, engine.Config{CheckpointBytes: cfg.CheckpointBytes})
		if err != nil {
			return nil, err
		}
	} else {
		db = engine.Open(engine.Config{})
	}
	if err := db.Disk().SetFaults(cfg.Faults); err != nil {
		return nil, err
	}
	srv := server.New(db, cfg.Latency)
	opts := tango.Options{
		HistogramBuckets: cfg.Histograms,
		Metrics:          cfg.Metrics,
		Retry:            cfg.Retry,
		// Every harness-driven run (and therefore every test) validates
		// optimized plans and executor builds with planck.
		CheckPlans: true,
	}
	mw := tango.Open(srv, opts)
	if cfg.Metrics != nil {
		srv.RegisterMetrics(cfg.Metrics)
		mw.IOProbe = func() (storage.IOStats, storage.PoolStats) {
			return db.Disk().Snapshot(), db.Pool().Snapshot()
		}
	}
	var (
		flight    *telemetry.Flight
		collector *telemetry.Collector
		preCrash  []telemetry.FlightEntry
	)
	if cfg.Trace {
		collector = telemetry.NewCollector(0)
		srv.SetCollector(collector)
		flight = telemetry.NewFlight(cfg.FlightSize)
		mw.Flight = flight
		if cfg.DataDir != "" {
			// Read the previous process's flight log (if any) before
			// SetDir truncates the file for this process's log.
			var err error
			preCrash, err = telemetry.LoadFlight(filepath.Join(cfg.DataDir, telemetry.FlightFile))
			if err != nil {
				return nil, err
			}
			if err := flight.SetDir(cfg.DataDir); err != nil {
				return nil, err
			}
		}
	}
	if db.Durable() {
		fd := db.FileDisk()
		mw.WALProbe = func() (int64, int64) { return fd.WALStats() }
	}
	// Restart path (durable stores only): the recovery outcome is
	// exported as counters and a startup-trace span. Temp tables of
	// sessions that died with the previous process need no sweep: they
	// lived on unlogged files, which no restart sees.
	reopened := false
	if db.Durable() {
		server.RegisterRecovery(cfg.Metrics, rstats)
		rsp := server.RecoverySpan(rstats)
		// Link the pre-crash flight log into the recovery trace: what
		// the previous process was doing when it died is part of the
		// story of this startup.
		if len(preCrash) > 0 {
			fc := rsp.AddChild("flight", 0)
			fc.SetInt("entries", int64(len(preCrash)))
			last := preCrash[len(preCrash)-1]
			fc.Set("last_trace_id", last.TraceID)
			fc.Set("last_query", last.Query)
			if last.Error != "" {
				fc.Set("last_error", last.Error)
			}
		}
		mw.SetStartupTrace(rsp)
		if _, err := db.Table("POSITION"); err == nil {
			reopened = true
		}
	}
	hb := cfg.Histograms
	if reopened {
		// The data survived the restart; only the statistics (which are
		// not persisted) must be recomputed from the recovered heaps.
		for _, name := range db.TableNames() {
			if _, err := mw.Conn.Exec(fmt.Sprintf("ANALYZE %s HISTOGRAM %d", name, hb)); err != nil {
				return nil, err
			}
		}
	} else if _, err := uis.Load(mw.Conn, cfg.PositionRows, cfg.EmployeeRows, hb); err != nil {
		return nil, err
	}
	if cfg.Calibrate > 0 {
		if err := mw.Calibrate(cfg.Calibrate); err != nil {
			return nil, err
		}
	}
	posRows := cfg.PositionRows
	if posRows <= 0 {
		posRows = uis.PositionRows
	}
	empRows := cfg.EmployeeRows
	if empRows <= 0 {
		empRows = uis.EmployeeRows
	}
	if cfg.Faults != nil {
		srv.SetFaults(cfg.Faults) // after the load, which runs clean of wire faults
	}
	return &System{DB: db, Srv: srv, MW: mw, Metrics: cfg.Metrics,
		PositionRows: posRows, EmployeeRows: empRows,
		Flight: flight, Collector: collector, PreCrashFlight: preCrash,
		Recovery: rstats, Reopened: reopened,
		opts: opts}, nil
}

// NewSessionMW opens an additional middleware instance with its own
// server session on the same DBMS, configured identically to the
// system's primary one. Concurrency tests use it to model independent
// clients sharing one server (and therefore one buffer pool, WAL, and
// catalog). The caller closes the returned middleware's connection.
func (s *System) NewSessionMW() *tango.Middleware {
	return tango.Open(s.Srv, s.opts)
}

// Close ends the middleware session (collecting its temp tables),
// closes the flight recorder's durable file, and closes the DBMS;
// durable stores flush and checkpoint.
func (s *System) Close() error {
	err := s.MW.Conn.Close()
	if ferr := s.Flight.Close(); err == nil {
		err = ferr
	}
	if cerr := s.DB.Close(); err == nil {
		err = cerr
	}
	return err
}

// NamedPlan is one of the plan alternatives of §5.2.
type NamedPlan struct {
	Name string
	Plan *algebra.Node
	// Hint pins the DBMS join method (Query 4's Oracle-hint analogue).
	Hint string
}

// Measurement is one timed plan execution.
type Measurement struct {
	Query   string
	Plan    string
	Param   string // sweep coordinate (size, year, ...)
	Rows    int
	Elapsed time.Duration
	Err     error
}

// Seconds returns the elapsed wall time in seconds.
func (m Measurement) Seconds() float64 { return m.Elapsed.Seconds() }

// RunPlan executes a plan and times it.
func (s *System) RunPlan(np NamedPlan) (*rel.Relation, time.Duration, error) {
	ex := &tango.Executor{Conn: s.MW.Conn, Cat: s.MW.Cat, Hint: np.Hint,
		CheckPlans: true}
	start := time.Now()
	out, err := ex.Run(np.Plan.Clone())
	return out, time.Since(start), err
}

// Measure runs a plan under a sweep coordinate.
func (s *System) Measure(query, param string, np NamedPlan) Measurement {
	out, elapsed, err := s.RunPlan(np)
	m := Measurement{Query: query, Plan: np.Name, Param: param, Elapsed: elapsed, Err: err}
	if out != nil {
		m.Rows = out.Cardinality()
	}
	return m
}

// PlanSignature summarizes where the interesting operators of a plan
// execute, e.g. "TAggr^M TJoin^D" — used to match the optimizer's
// choice against the named plan alternatives.
func PlanSignature(p *algebra.Node) string {
	sig := ""
	p.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpTAggr, algebra.OpTJoin, algebra.OpJoin:
			loc := "D"
			if n.Loc() == algebra.LocMW {
				loc = "M"
			}
			if sig != "" {
				sig += " "
			}
			sig += fmt.Sprintf("%v^%s", n.Op, loc)
		}
	})
	if sig == "" {
		sig = "(transfer only)"
	}
	return sig
}
