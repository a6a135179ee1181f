package tango

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/cost"
	"tango/internal/optimizer"
	"tango/internal/planck"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/sqlgen"
	"tango/internal/stats"
	"tango/internal/storage"
	"tango/internal/telemetry"
)

// Middleware is TANGO: the temporal middleware sitting between an
// application and a conventional DBMS. It optimizes temporal query
// plans, splits them between itself and the DBMS, executes them, and
// adapts its cost factors from execution feedback.
type Middleware struct {
	Conn  *client.Conn
	Cat   algebra.Catalog
	Est   *stats.Estimator
	Model *cost.Model

	// CheckPlans enables the planck runtime plan validator on every
	// optimized plan and every executor build (debug mode; on in all
	// tests via the bench harness).
	CheckPlans bool

	// Metrics, when set, receives middleware telemetry: per-operator
	// series (engine="mw"), optimizer search statistics, per-operator
	// cardinality drift (Q-error), and query counters. It is also
	// handed to the executor for operator instrumentation.
	Metrics *telemetry.Registry
	// IOProbe forwards engine I/O counters into the execute span of
	// the query trace (wired by in-process harnesses that can reach
	// the DBMS instance directly).
	IOProbe func() (storage.IOStats, storage.PoolStats)
	// WALProbe forwards the durable store's WAL counters (bytes,
	// records) into the execute span and per-session accounting.
	WALProbe func() (int64, int64)
	// Flight, when set, receives the finished (stitched) span tree of
	// every query — the ring-buffer flight recorder a post-mortem reads.
	Flight *telemetry.Flight

	mu        sync.Mutex //tango:lock-order middleware latch
	lastTrace *telemetry.Span
	lastStats *telemetry.OpStats
}

// Options configures the middleware.
type Options struct {
	// HistogramBuckets controls the statistics collector; 0 disables
	// histograms (the paper evaluates Query 2 both ways).
	HistogramBuckets int
	// Metrics attaches a telemetry registry to the middleware (see
	// Middleware.Metrics); nil disables metrics.
	Metrics *telemetry.Registry
	// CheckPlans turns on the planck plan validator (see
	// Middleware.CheckPlans).
	CheckPlans bool
	// Retry configures the connection's wire resilience layer (per-call
	// deadlines, capped jittered backoff); the zero value disables it.
	Retry client.RetryPolicy
	// Flight attaches a flight recorder (see Middleware.Flight); nil
	// disables it.
	Flight *telemetry.Flight
}

// Open connects the middleware to an in-process DBMS server.
func Open(srv *server.Server, opts Options) *Middleware {
	return OpenConn(client.Connect(srv), opts)
}

// OpenConn builds the middleware on an already-open client connection
// — the seam the TCP transport plugs into (client.Dial /
// Transport.Conn); the in-process Open goes through here too.
func OpenConn(conn *client.Conn, opts Options) *Middleware {
	conn.Metrics = opts.Metrics
	conn.Retry = opts.Retry
	cat := ConnCatalog{Conn: conn}
	est := stats.NewEstimator(cat, conn)
	est.HistogramBuckets = opts.HistogramBuckets
	model := cost.NewModel(est)
	return &Middleware{
		Conn:       conn,
		Cat:        cat,
		Est:        est,
		Model:      model,
		Metrics:    opts.Metrics,
		CheckPlans: opts.CheckPlans,
		Flight:     opts.Flight,
	}
}

// Calibrate derives the cost factors from sample runs against the
// connected DBMS (the Cost Estimator component), into a fresh model
// that replaces the current one only when calibration succeeds.
// rows ≤ 0 uses the default sample size.
func (m *Middleware) Calibrate(rows int) error {
	model := cost.NewModel(m.Est)
	if err := (&cost.Calibrator{Conn: m.Conn, Rows: rows}).Calibrate(model); err != nil {
		return fmt.Errorf("tango: calibration: %w", err)
	}
	m.Model = model
	return nil
}

// Optimize runs the optimizer on an initial plan.
func (m *Middleware) Optimize(initial *algebra.Node) (*optimizer.Result, error) {
	return m.timedOptimize(initial, nil)
}

// timedOptimize runs the optimizer under an "optimize" child span,
// which is the connection's trace parent meanwhile, so the schema and
// statistics fetches of a cold metadata cache nest under it, and
// exports the search statistics to the registry.
func (m *Middleware) timedOptimize(initial *algebra.Node, root *telemetry.Span) (*optimizer.Result, error) {
	sp := root.Child("optimize")
	if sp != nil {
		defer m.Conn.PushTrace(sp)()
	}
	res, err := optimizer.Optimize(m.Model, initial)
	sp.Finish()
	if err != nil {
		return nil, err
	}
	sp.SetInt("classes", int64(res.Classes))
	sp.SetInt("elements", int64(res.Elements))
	sp.SetInt("plans", int64(len(res.Candidates)))
	sp.SetFloat("cost", res.BestCost)
	if m.CheckPlans {
		if cerr := planck.Check(res.Best, res.Catalog); cerr != nil {
			return nil, fmt.Errorf("tango: optimizer chose an invalid plan: %w", cerr)
		}
	}
	m.recordOptimizer(res)
	return res, nil
}

// recordOptimizer exports one optimization's search statistics. The
// count of tango_optimize_seconds is the number of optimizations; that
// of tango_query_seconds (finish) the number of queries.
func (m *Middleware) recordOptimizer(res *optimizer.Result) {
	reg := m.Metrics
	if reg == nil {
		return
	}
	reg.Histogram("tango_optimize_seconds", nil, telemetry.DurationBuckets).Observe(res.Elapsed.Seconds())
	reg.Histogram("tango_optimizer_classes", nil, telemetry.CountBuckets).Observe(float64(res.Classes))
	reg.Histogram("tango_optimizer_elements", nil, telemetry.CountBuckets).Observe(float64(res.Elements))
	reg.Counter("tango_optimizer_plans_costed_total", nil).Add(int64(res.PlansCosted))
	for rule, n := range res.RulesFired {
		reg.Counter("tango_optimizer_rule_fired_total", telemetry.Labels{"rule": rule}).Add(int64(n))
	}
}

// newExecutor builds an executor reading cat and configured with the
// middleware's telemetry. Instrumentation is always on: the
// per-operator feedback loop needs measured timings.
func (m *Middleware) newExecutor(cat algebra.Catalog, root *telemetry.Span) *Executor {
	return &Executor{
		Conn:       m.Conn,
		Cat:        cat,
		Metrics:    m.Metrics,
		Analyze:    true,
		Trace:      root,
		IOProbe:    m.IOProbe,
		WALProbe:   m.WALProbe,
		CheckPlans: m.CheckPlans,
	}
}

// Execute runs a physical plan and feeds the observed transfer and
// per-operator costs back into the cost factors.
func (m *Middleware) Execute(plan *algebra.Node) (out *rel.Relation, err error) {
	root := telemetry.NewSpan("query")
	pop := m.Conn.PushTrace(root)
	defer func() { pop(); m.finish(root, planLabel(plan), err) }()
	out, _, err = m.executeResult(&optimizer.Result{Best: plan}, root)
	return out, err
}

// finish completes one query's trace: it closes the root span,
// stitches in the DBMS-side spans the server collected for this trace
// ID, observes the end-to-end latency (and error count), hands the
// finished tree to the flight recorder, and stores it as the last
// trace. Call it exactly once per root — the latency histogram counts
// queries.
func (m *Middleware) finish(root *telemetry.Span, query string, err error) {
	if root == nil {
		return
	}
	root.Finish()
	if m.Conn != nil {
		telemetry.Stitch(root, m.Conn.TakeRemoteSpans(root.TraceID()))
	}
	if m.Metrics != nil {
		m.Metrics.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets).Observe(root.Elapsed().Seconds())
		if err != nil {
			m.Metrics.Counter("tango_query_errors_total", nil).Inc()
		}
	}
	m.Flight.Record(root, query, err)
	m.mu.Lock()
	m.lastTrace = root
	m.mu.Unlock()
}

// planLabel renders a compact plan description for the flight log.
func planLabel(plan *algebra.Node) string {
	if plan == nil {
		return ""
	}
	s := plan.String()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

// absorb feeds one execution's measurements back into the model, each
// through Model.Observe: every T^M's and T^D's whole-transfer
// feedback, then every other middleware operator's self time. It also
// records the Q-error drift metrics comparing the optimizer's
// cardinality estimates, read from the query's catalog view, against
// observed row counts. A view lives for one query only, so ANALYZE and
// DDL between queries stay visible.
func (m *Middleware) absorb(ex *Executor, cat *stats.Snapshot, root *telemetry.Span) {
	m.mu.Lock()
	for _, t := range ex.transfersM {
		m.Model.Observe(cost.FromFeedback(t.node, t.Feedback()))
	}
	for _, t := range ex.transfersD {
		m.Model.Observe(cost.FromFeedback(t.node, t.Feedback()))
	}
	m.mu.Unlock()
	st := ex.ExecStats()
	if st == nil {
		return
	}
	var worstQ float64
	var worstOp string
	st.Walk(func(s *telemetry.OpStats) {
		n, ok := s.Node.(*algebra.Node)
		if !ok || n == nil {
			return
		}
		// Transfers were observed above, from their feedback.
		if n.Op != algebra.OpTM && n.Op != algebra.OpTD {
			m.mu.Lock()
			m.Model.Observe(cost.FromStats(n, s))
			m.mu.Unlock()
		}
		if m.Metrics != nil && s.Rows > 0 {
			if est, _, err := cat.Estimate(n, nil); err == nil && est.Card > 0 {
				q := est.Card / float64(s.Rows)
				if q < 1 {
					q = 1 / q
				}
				l := telemetry.Labels{"op": s.Op}
				m.Metrics.Histogram("tango_qerror", l, telemetry.QErrorBuckets).Observe(q)
				m.Metrics.Gauge("tango_qerror_last", l).Set(q)
				if q > worstQ {
					worstQ, worstOp = q, s.Op
				}
			}
		}
	})
	// Pin the worst-drifting operator of this query as the exemplar of
	// the bucket its Q-error landed in, so the histogram points back at
	// a concrete trace to read.
	if m.Metrics != nil && worstQ > 0 && root.TraceID() != 0 {
		m.Metrics.Histogram("tango_qerror", telemetry.Labels{"op": worstOp}, telemetry.QErrorBuckets).
			SetExemplar(worstQ, fmt.Sprintf("%016x", root.TraceID()), worstOp)
	}
}

// Run optimizes an initial plan and executes the winner, returning
// the result and the optimizer's report. The whole lifecycle is
// traced (optimize → build → execute → transfers); LastTrace returns
// the span tree. When the winning plan dies of a transient
// infrastructure failure, Run degrades gracefully by re-siting the
// query onto a fallback candidate (see runWithFallback); when the DBMS
// refuses it as built on stale metadata, Run plans once more.
func (m *Middleware) Run(initial *algebra.Node) (out *rel.Relation, res *optimizer.Result, err error) {
	root := telemetry.NewSpan("query")
	pop := m.Conn.PushTrace(root)
	defer func() { pop(); m.finish(root, planLabel(initial), err) }()
	res, out, _, err = m.optimizeAndRun(initial, root)
	return out, res, err
}

// optimizeAndRun optimizes initial and executes the winner. A plan the
// DBMS refuses because its metadata epoch has moved on (the refusal
// has emptied the connection's metadata cache) is optimized once more
// from fresh metadata; the re-plan is a "replan" child of root and
// bumps tango_plan_replans_total.
func (m *Middleware) optimizeAndRun(initial *algebra.Node, root *telemetry.Span) (*optimizer.Result, *rel.Relation, *Executor, error) {
	for replanned := false; ; replanned = true {
		res, err := m.timedOptimize(initial, root)
		if err != nil {
			return nil, nil, nil, err
		}
		out, ex, err := m.executeResult(res, root)
		if err == nil || replanned || !errors.Is(err, server.ErrStaleMetadata) {
			return res, out, ex, err
		}
		sp := root.Child("replan")
		sp.Set("cause", err.Error())
		sp.Finish()
		if m.Metrics != nil {
			m.Metrics.Counter("tango_plan_replans_total", nil).Inc()
		}
	}
}

// ExecuteResult executes an optimizer result under the given trace
// root (nil for untraced), degrading to a fallback candidate when the
// best plan fails with a transient infrastructure error, and feeds the
// winning execution back into the cost model. Exposed so harnesses can
// drive the degradation path with synthetic candidate lists.
func (m *Middleware) ExecuteResult(res *optimizer.Result, root *telemetry.Span) (*rel.Relation, error) {
	out, _, err := m.executeResult(res, root)
	return out, err
}

// executeResult is ExecuteResult, also returning the executor whose run
// produced the result.
func (m *Middleware) executeResult(res *optimizer.Result, root *telemetry.Span) (*rel.Relation, *Executor, error) {
	cat := res.Catalog
	if cat == nil { // a result built by hand rather than by Optimize
		cat = m.Est.Snapshot()
	}
	out, ex, err := m.runWithFallback(res, cat, root)
	if err != nil {
		return nil, nil, err
	}
	m.absorb(ex, cat, root)
	m.mu.Lock()
	m.lastStats = ex.ExecStats()
	m.mu.Unlock()
	return out, ex, nil
}

// LastTrace returns the span tree of the most recent
// Run/Execute/ExplainAnalyze (nil before the first query).
func (m *Middleware) LastTrace() *telemetry.Span {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastTrace
}

// SetStartupTrace seeds the trace slot with a startup span (e.g. the
// server's recovery span after a durable reopen) so `\trace` shows
// what the restart did before the first query replaces it. A nil span
// is ignored.
func (m *Middleware) SetStartupTrace(sp *telemetry.Span) {
	if sp == nil {
		return
	}
	m.mu.Lock()
	m.lastTrace = sp
	m.mu.Unlock()
}

// LastExecStats returns the measured operator tree of the most recent
// execution, or nil when instrumentation was off.
func (m *Middleware) LastExecStats() *telemetry.OpStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastStats
}

// Explain renders the best plan, its estimated cost, and the SQL each
// TRANSFER^M would issue, without executing anything.
func (m *Middleware) Explain(initial *algebra.Node) (string, error) {
	res, err := m.Optimize(initial)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("cost %.0f µs, %d classes, %d elements\n%s",
		res.BestCost, res.Classes, res.Elements, res.Best)
	sqls, err := TransferSQL(res.Catalog, res.Best)
	if err == nil && len(sqls) > 0 {
		out += "\nDBMS statements:\n"
		for i, s := range sqls {
			out += fmt.Sprintf("  [%d] %s\n", i+1, s)
		}
	}
	return out, nil
}

// ExplainAnalyze optimizes and executes the plan with full
// instrumentation and renders the measured profile: the estimated
// cost, the query-lifecycle span tree, and the per-operator tree with
// observed rows, Next calls, bytes, and self times. The materialized
// result is returned alongside the report.
func (m *Middleware) ExplainAnalyze(initial *algebra.Node) (string, *rel.Relation, error) {
	root := telemetry.NewSpan("query")
	pop := m.Conn.PushTrace(root)
	res, out, ex, err := m.optimizeAndRun(initial, root)
	pop()
	if err != nil {
		m.finish(root, planLabel(initial), err)
		return "", nil, err
	}
	// Finish (and stitch) before rendering so the report shows the
	// remote spans and the settled root duration.
	m.finish(root, planLabel(initial), nil)

	var b strings.Builder
	fmt.Fprintf(&b, "estimated cost %.0f µs, %d classes, %d elements, %d plans costed\n",
		res.BestCost, res.Classes, res.Elements, res.PlansCosted)
	b.WriteString(root.Render())
	if st := ex.ExecStats(); st != nil {
		b.WriteString("operators:\n")
		b.WriteString(st.Format())
	}
	fmt.Fprintf(&b, "result: %d rows\n", out.Cardinality())
	return b.String(), out, nil
}

// TransferSQL returns the SQL statement under every T^M of a plan (in
// plan order). T^D-created temp tables appear under placeholder names.
func TransferSQL(cat algebra.Catalog, plan *algebra.Node) ([]string, error) {
	var out []string
	var firstErr error
	tempNo := 0
	plan.Walk(func(n *algebra.Node) {
		if n.Op != algebra.OpTM || firstErr != nil {
			return
		}
		gen := &sqlgen.Gen{Cat: cat, TempTables: map[*algebra.Node]string{}}
		n.Left.Walk(func(d *algebra.Node) {
			if d.Op == algebra.OpTD {
				tempNo++
				gen.TempTables[d] = fmt.Sprintf("TMP_%d", tempNo)
			}
		})
		sql, _, err := gen.SQL(n.Left)
		if err != nil {
			firstErr = err
			return
		}
		out = append(out, sql)
	})
	return out, firstErr
}
