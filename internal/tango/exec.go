// Package tango is the temporal middleware façade: it owns the
// connection to the DBMS, the statistics collector, the cost
// estimator, the optimizer, and the execution engine, and exposes the
// public API a client application uses to run temporal queries.
package tango

import (
	"fmt"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/planck"
	"tango/internal/rel"
	"tango/internal/sqlgen"
	"tango/internal/stats"
	"tango/internal/storage"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/xxl"
)

// Executor turns a validated physical plan (an algebra tree with
// transfer operators) into a pipelined iterator: DBMS-resident parts
// are translated to SQL and pulled through TRANSFER^M; middleware
// parts run on XXL's sequential algorithms, one Open/Next/Close
// pipeline per operator. The only concurrency is each T^M cursor's
// one-batch read-ahead, which overlaps the wire, not CPU.
type Executor struct {
	Conn *client.Conn
	Cat  algebra.Catalog
	// Hint pins the DBMS join method in generated SQL (Query 4 uses
	// this the way the paper uses Oracle hints).
	Hint string
	// CheckPlans enables the planck debug validator: every plan is
	// checked against the schema-propagation, sort-order, and
	// transfer-placement invariants before building, and the built
	// iterator's schema is asserted against the algebra's derivation
	// afterwards. The bench harness keeps this on for all tests.
	CheckPlans bool
	// Parallelism has no effect; the middleware is sequential.
	//
	// Deprecated: kept only for the benchmark module, which sets it.
	Parallelism int

	// Metrics, when set, enables per-operator instrumentation and
	// flushes the measured operator tree into the registry after each
	// run (series under engine="mw").
	Metrics *telemetry.Registry
	// Analyze enables per-operator instrumentation even without a
	// registry, so ExecStats is populated (EXPLAIN ANALYZE).
	Analyze bool
	// Trace, when set, receives build/execute/transfer child spans for
	// the query-lifecycle trace.
	Trace *telemetry.Span
	// IOProbe, when set, snapshots the engine's I/O counters around
	// execution so the execute span carries per-query disk and
	// buffer-pool deltas (wired by in-process harnesses that can reach
	// the DBMS instance).
	IOProbe func() (storage.IOStats, storage.PoolStats)
	// WALProbe, when set, snapshots the durable store's WAL counters
	// (bytes, records) around execution so the execute span and the
	// per-session accounting carry the query's redo volume.
	WALProbe func() (int64, int64)

	// view is the catalog Build reads through: Cat when it is an
	// optimizer's snapshot, else a fresh snapshot over Cat.
	view       *stats.Snapshot
	transfersM []*TransferM
	transfersD []*TransferD
	sorts      []*xxl.Sort
	root       *telemetry.Iter
}

// Build compiles the plan into an iterator. The plan root must be
// middleware-resident (a complete plan always has a T^M at its root).
// Every T^M opens its cursor under the oldest metadata epoch the plan
// was read under — the optimizer's, when Cat is its snapshot — so the
// DBMS refuses a plan whose metadata it has since changed.
func (e *Executor) Build(plan *algebra.Node) (rel.Iterator, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Loc() != algebra.LocMW {
		return nil, fmt.Errorf("tango: plan root must be middleware-resident (add a T^M)")
	}
	var ok bool
	if e.view, ok = e.Cat.(*stats.Snapshot); !ok {
		e.view = (&stats.Estimator{Cat: e.Cat}).Snapshot()
	}
	if e.CheckPlans {
		if err := planck.Check(plan, e.view); err != nil {
			return nil, fmt.Errorf("tango: plan check before build: %w", err)
		}
	}
	e.transfersM = nil
	e.transfersD = nil
	e.sorts = nil
	e.root = nil
	it, err := e.buildMW(plan)
	if err != nil {
		return nil, err
	}
	for _, t := range e.transfersM {
		t.epoch = e.view.Epoch()
	}
	if e.CheckPlans {
		if cerr := planck.CheckIterator(plan, e.view, it.Schema()); cerr != nil {
			_ = it.Close() // not yet opened; release eagerly-built state
			return nil, fmt.Errorf("tango: plan check after build: %w", cerr)
		}
	}
	return it, nil
}

// Run builds and drains the plan, returning the materialized result.
// The executor's trace span is pushed onto the connection for the
// duration, and its execute child while the plan drains, so every wire
// op of the run carries the query's trace context across to the DBMS
// and each transfer's span (see TransferM.Open) nests inside execute.
func (e *Executor) Run(plan *algebra.Node) (*rel.Relation, error) {
	pop := e.Conn.PushTrace(e.Trace)
	defer pop()
	sb := e.Trace.Child("build")
	it, err := e.Build(plan)
	sb.Finish()
	if err != nil {
		return nil, err
	}
	se := e.Trace.Child("execute")
	popExec := e.Conn.PushTrace(se)
	var ioBase storage.IOStats
	var poolBase storage.PoolStats
	if e.IOProbe != nil {
		ioBase, poolBase = e.IOProbe()
	}
	var walBase, walRecBase int64
	if e.WALProbe != nil {
		walBase, walRecBase = e.WALProbe()
	}
	out, err := rel.Drain(it) // closes it on every path
	popExec()
	if out != nil {
		se.SetInt("rows", int64(out.Cardinality()))
		se.SetInt("bytes", int64(out.ByteSize()))
	}
	if e.IOProbe != nil {
		io, pool := e.IOProbe()
		dio, dpool := io.Sub(ioBase), pool.Sub(poolBase)
		se.SetInt("disk_reads", dio.Reads)
		se.SetInt("disk_writes", dio.Writes)
		se.SetInt("pool_hits", dpool.Hits)
		se.SetInt("pool_misses", dpool.Misses)
		se.SetInt("pool_evictions", dpool.Evictions)
		e.Conn.AddSessionStat("pool_hits", dpool.Hits)
		e.Conn.AddSessionStat("pool_misses", dpool.Misses)
		e.Conn.AddSessionStat("pool_evictions", dpool.Evictions)
	}
	if e.WALProbe != nil {
		wb, wr := e.WALProbe()
		se.SetInt("wal_bytes", wb-walBase)
		se.SetInt("wal_records", wr-walRecBase)
		e.Conn.AddSessionStat("wal_bytes", wb-walBase)
	}
	var spill int64
	for _, s := range e.sorts {
		spill += s.SpilledBytes()
	}
	if spill > 0 {
		se.SetInt("spill_bytes", spill)
		e.Conn.AddSessionStat("spill_bytes", spill)
	}
	var tempBytes int64
	for _, td := range e.transfersD {
		tempBytes += td.Feedback().Bytes
	}
	if tempBytes > 0 {
		se.SetInt("temp_bytes", tempBytes)
		e.Conn.AddSessionStat("temp_bytes", tempBytes)
	}
	se.Finish()
	if e.Metrics != nil && e.root != nil {
		telemetry.RecordOpStats(e.Metrics, "mw", e.root.Stats())
	}
	return out, err
}

// ExecStats returns the measured operator tree of the last run, or nil
// when instrumentation was disabled (neither Metrics nor Analyze set).
// Valid after the iterator is drained and closed.
func (e *Executor) ExecStats() *telemetry.OpStats {
	if e.root == nil {
		return nil
	}
	return e.root.Stats()
}

// Feedback returns the transfer statistics observed by the last run
// (valid after the iterator is drained and closed). Used to adapt the
// cost factors.
func (e *Executor) Feedback() []client.Feedback {
	var out []client.Feedback
	for _, t := range e.transfersM {
		out = append(out, t.Feedback())
	}
	for _, t := range e.transfersD {
		out = append(out, t.Feedback())
	}
	return out
}

func (e *Executor) instrumented() bool { return e.Analyze || e.Metrics != nil }

// instrument wraps a middleware operator with telemetry, labeling it
// in the paper's notation (TAggr^M, TJoin^M, TM, TD) and linking the
// already-instrumented inputs as children in the stats tree. The plan
// node is attached so the adaptive cost loop can match measurements
// back to estimates. The last wrapper built is the plan root (buildMW
// wraps bottom-up).
func (e *Executor) instrument(n *algebra.Node, it rel.Iterator, inputs ...rel.Iterator) rel.Iterator {
	if !e.instrumented() {
		return it
	}
	label := n.Op.String() + "^M"
	switch n.Op {
	case algebra.OpTM:
		label = "TM"
	case algebra.OpTD:
		label = "TD"
	}
	w := telemetry.Instrument(label, n, it, inputs...)
	e.root = w
	return w
}

func (e *Executor) buildMW(n *algebra.Node) (rel.Iterator, error) {
	switch n.Op {
	case algebra.OpTM:
		return e.buildTM(n)

	case algebra.OpSelect:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		f, err := xxl.NewFilter(in, n.Pred)
		if err != nil {
			return nil, err
		}
		return e.instrument(n, f, in), nil

	case algebra.OpProject:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		inSchema := in.Schema()
		outSchema, err := n.Schema(e.view)
		if err != nil {
			return nil, err
		}
		idx := make([]int, len(n.Cols))
		for i, pc := range n.Cols {
			j := inSchema.ColumnIndex(pc.Src)
			if j < 0 {
				return nil, fmt.Errorf("tango: project: no column %q in %v", pc.Src, inSchema.Names())
			}
			idx[i] = j
		}
		return e.instrument(n, xxl.NewProject(in, idx, outSchema), in), nil

	case algebra.OpSort:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		keys, err := colIndexes(in.Schema(), n.Keys)
		if err != nil {
			return nil, err
		}
		srt := xxl.NewSort(in, keys)
		e.sorts = append(e.sorts, srt)
		return e.instrument(n, srt, in), nil

	case algebra.OpJoin, algebra.OpTJoin:
		left, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := e.buildMW(n.Right)
		if err != nil {
			return nil, err
		}
		lkeys, err := colIndexes(left.Schema(), n.LeftCols)
		if err != nil {
			return nil, err
		}
		rkeys, err := colIndexes(right.Schema(), n.RightCols)
		if err != nil {
			return nil, err
		}
		if n.Op == algebra.OpJoin {
			return e.instrument(n, xxl.NewMergeJoin(left, right, lkeys, rkeys), left, right), nil
		}
		lt1, lt2 := algebra.TimeColumns(left.Schema())
		rt1, rt2 := algebra.TimeColumns(right.Schema())
		if lt1 < 0 || lt2 < 0 || rt1 < 0 || rt2 < 0 {
			return nil, fmt.Errorf("tango: temporal join inputs lack T1/T2")
		}
		tj := xxl.NewTJoin(left, right, lkeys, rkeys, lt1, lt2, rt1, rt2)
		return e.instrument(n, tj, left, right), nil

	case algebra.OpTAggr:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		inSchema := in.Schema()
		groupBy, err := colIndexes(inSchema, n.GroupBy)
		if err != nil {
			return nil, err
		}
		t1, t2 := algebra.TimeColumns(inSchema)
		if t1 < 0 || t2 < 0 {
			return nil, fmt.Errorf("tango: taggr input lacks T1/T2: %v", inSchema.Names())
		}
		outSchema, err := n.Schema(e.view)
		if err != nil {
			return nil, err
		}
		aggs := make([]xxl.AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			spec := xxl.AggSpec{Kind: xxl.AggKind(a.Fn)}
			if a.Fn != "COUNT" {
				j := inSchema.ColumnIndex(a.Col)
				if j < 0 {
					return nil, fmt.Errorf("tango: taggr: no column %q", a.Col)
				}
				spec.Col = j
			}
			aggs[i] = spec
		}
		ta := xxl.NewTAggr(in, groupBy, t1, t2, aggs, outSchema)
		return e.instrument(n, ta, in), nil

	case algebra.OpDupElim:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		return e.instrument(n, xxl.NewDupElim(in), in), nil

	case algebra.OpCoalesce:
		in, err := e.buildMW(n.Left)
		if err != nil {
			return nil, err
		}
		t1, t2 := algebra.TimeColumns(in.Schema())
		if t1 < 0 || t2 < 0 {
			return nil, fmt.Errorf("tango: coalesce input lacks T1/T2")
		}
		return e.instrument(n, xxl.NewCoalesce(in, t1, t2), in), nil

	default:
		return nil, fmt.Errorf("tango: operator %v cannot run in the middleware", n.Op)
	}
}

// buildTM translates the DBMS subtree under a T^M to SQL, wiring in
// TRANSFER^D dependencies for any middleware-resident islands below.
func (e *Executor) buildTM(n *algebra.Node) (rel.Iterator, error) {
	gen := &sqlgen.Gen{Cat: e.view, TempTables: map[*algebra.Node]string{}, Hint: e.Hint}
	var deps []*TransferD
	var tdIters []rel.Iterator
	// Find T^D nodes in the DBMS region (stop descending at them).
	var visit func(m *algebra.Node) error
	visit = func(m *algebra.Node) error {
		if m == nil {
			return nil
		}
		if m.Op == algebra.OpTD {
			in, err := e.buildMW(m.Left)
			if err != nil {
				return err
			}
			// The T^D wrapper measures the transfer's read side (the
			// rows shipped to the DBMS) and links the middleware island
			// into the stats tree as a child of the enclosing T^M.
			in = e.instrument(m, in, in)
			tdIters = append(tdIters, in)
			name := e.Conn.TempName()
			td := NewTransferD(e.Conn, in, name)
			td.node = m
			gen.TempTables[m] = name
			deps = append(deps, td)
			e.transfersD = append(e.transfersD, td)
			return nil
		}
		if err := visit(m.Left); err != nil {
			return err
		}
		return visit(m.Right)
	}
	if err := visit(n.Left); err != nil {
		return nil, err
	}
	sql, _, err := gen.SQL(n.Left)
	if err != nil {
		return nil, err
	}
	schema, err := n.Schema(e.view)
	if err != nil {
		return nil, err
	}
	tm := NewTransferM(e.Conn, sql, schema, deps...)
	tm.node = n
	e.transfersM = append(e.transfersM, tm)
	return e.instrument(n, tm, tdIters...), nil
}

func colIndexes(s types.Schema, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.ColumnIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("tango: no column %q in %v", n, s.Names())
		}
		idx[i] = j
	}
	return idx, nil
}

// abbreviate shortens a SQL statement for span attributes.
func abbreviate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// ConnCatalog adapts a client connection to the algebra's Catalog
// interface.
type ConnCatalog struct{ Conn *client.Conn }

// TableSchema fetches a base-table schema from the DBMS.
func (c ConnCatalog) TableSchema(name string) (types.Schema, error) {
	return c.Conn.TableSchema(name)
}

// TableSchemaAt is TableSchema plus the metadata epoch the schema was
// read under (stats.EpochCatalog).
func (c ConnCatalog) TableSchemaAt(name string) (types.Schema, uint64, error) {
	return c.Conn.TableSchemaAt(name)
}
