package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/optimizer"
	"tango/internal/rel"
	"tango/internal/sqlgen"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/wire"
	"tango/internal/xxl"
)

// The traced run works from outside the program: every span below is
// recorded in this file, around a call into a layer's public API. A
// traced round has two halves. In the timed half each statement runs
// stepwise (parse, optimize, execute as separate calls — the same calls
// Middleware.Run makes), which gives the round's wall time. In the
// replay half each statement is replayed layer by layer: every SQL
// string its plan shipped is fetched again over TCP, served again
// in-process, executed again in the engine, its batches decoded and
// encoded again, and each middleware operator is run again over the
// relations just fetched. Replays are not part of the round's wall time.

// span is one timed call. Parent indexes the span that caused it
// within the same client's list (-1 for a round).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the traced phase began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
	Client  int    `json:"client"`
	Note    string `json:"note,omitempty"` // statement name, SQL text or plan signature
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, reach), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// clientTrace is one client's side of the traced phase: its spans and,
// per round, the time and counts attributed to each layer.
type clientTrace struct {
	c      *clientState
	id     int
	t0     time.Time
	spans  []span
	round  int
	acc    map[string]float64   // the round in progress
	rounds []map[string]float64 // finished rounds
	// The round in progress: its span, the statements awaiting replay
	// and what failed so far.
	roundSpan int
	items     []replayItem
	errs      []error
	// payloads are the batches of the last server replay, kept for the
	// single-threaded decode-allocation count after the phase.
	payloads [][]byte
	encBuf   []byte
}

func (t *clientTrace) begin(name string, parent int, note string) int {
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent,
		Round: t.round, Client: t.id, Note: note})
	return len(t.spans) - 1
}

func (t *clientTrace) end(id int) time.Duration {
	t.spans[id].EndNs = int64(time.Since(t.t0))
	return time.Duration(t.spans[id].EndNs - t.spans[id].StartNs)
}

// in runs fn under a span and adds its duration, in ms, to the round's
// total for the span's name.
func (t *clientTrace) in(name string, parent int, note string, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, note)
	err := fn()
	d := t.end(id)
	t.acc[name] += ms(d)
	return d, err
}

// signature says where a plan's interesting operators run, e.g.
// "TAggr^M TJoin^D".
func signature(p *algebra.Node) string {
	sig := ""
	p.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpTAggr, algebra.OpTJoin, algebra.OpJoin, algebra.OpSort, algebra.OpCoalesce:
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
	return sig
}

// replayItem is one statement of the round in progress, kept until the
// round's replay half.
type replayItem struct {
	st       *stmt
	lit      int
	loadRows []types.Tuple
	plan     *algebra.Node
}

// timedRound is the first half of a traced round: clientState.round
// with every statement run stepwise under spans. All clients run it at
// the same time, as they run untraced rounds.
func (t *clientTrace) timedRound() {
	c := t.c
	t.acc = map[string]float64{}
	t.items, t.errs = t.items[:0], nil
	t.roundSpan = t.begin("round", -1, "")
	for i := range c.h.w.stmts {
		st := &c.h.w.stmts[i]
		lit, loadRows := c.draw(st)
		out, plan, err := t.stepwise(t.roundSpan, st, lit, loadRows)
		if err == nil {
			err = c.check(st, lit, out, loadRows)
		}
		if err != nil {
			t.errs = append(t.errs, fmt.Errorf("%s[%d]: %w", st.name, lit, err))
			continue
		}
		t.items = append(t.items, replayItem{st, lit, loadRows, plan})
	}
}

// replayRound is the second half: every statement of the round is
// replayed layer by layer, outside the round's wall time.
func (t *clientTrace) replayRound() {
	for _, it := range t.items {
		if err := t.replay(t.roundSpan, it.st, it.lit, it.loadRows, it.plan); err != nil {
			t.errs = append(t.errs, fmt.Errorf("%s[%d] replay: %w", it.st.name, it.lit, err))
		}
	}
	if err := t.c.endRound(); err != nil {
		t.errs = append(t.errs, fmt.Errorf("recreate POSLOG: %w", err))
	}
	t.end(t.roundSpan)
	t.rounds = append(t.rounds, t.acc)
	t.round++
}

// stepwise runs one statement as the separate public calls exec makes
// in one go. It returns the result and, for a statement that executes
// a plan, a copy of that plan for the replay.
func (t *clientTrace) stepwise(parent int, st *stmt, lit int, loadRows []types.Tuple) (out *rel.Relation, plan *algebra.Node, err error) {
	c := t.c
	s := t.begin("stmt", parent, st.name)
	defer func() { t.acc["round.wall"] += ms(t.end(s)) }()
	switch st.kind {
	case kindTSQL:
		var initial *algebra.Node
		if _, err = t.in("tsql.parse", s, "", func() (err error) {
			initial, err = tsql.Parse(st.text(lit), c.mw.Cat)
			return err
		}); err != nil {
			return nil, nil, err
		}
		var res *optimizer.Result
		if _, err = t.in("optimizer.optimize", s, "", func() (err error) {
			res, err = c.mw.Optimize(initial)
			return err
		}); err != nil {
			return nil, nil, err
		}
		t.acc["optimizer.candidates"] += float64(len(res.Candidates))
		t.acc["optimizer.classes"] += float64(res.Classes)
		t.acc["optimizer.elements"] += float64(res.Elements)
		t.acc["optimizer.plans_costed"] += float64(res.PlansCosted)
		plan = res.Best.Clone()
		_, err = t.in("tango.execute", s, signature(plan), func() (err error) {
			out, err = c.mw.ExecuteResult(res, nil)
			return err
		})
	case kindPlan:
		plan = st.plan(lit)
		_, err = t.in("tango.execute", s, signature(plan), func() (err error) {
			out, err = c.exec(st, lit, nil)
			return err
		})
	case kindSQL:
		var d time.Duration
		d, err = t.in("client.fetch", s, st.text(lit), func() (err error) {
			var fb client.Feedback
			out, fb, err = c.conn.QueryAll(st.text(lit))
			t.acc["client.round_trips"] += float64(fb.Batches)
			return err
		})
		t.acc["direct"] += ms(d)
	case kindLoad:
		var d time.Duration
		d, err = t.in("client.load", s, "", func() (err error) {
			_, err = c.exec(st, lit, loadRows)
			return err
		})
		t.acc["direct"] += ms(d)
	}
	return out, plan, err
}

// replay re-runs the statement's work layer by layer.
func (t *clientTrace) replay(parent int, st *stmt, lit int, loadRows []types.Tuple, plan *algebra.Node) error {
	r := t.begin("replay", parent, st.name)
	defer t.end(r)
	switch st.kind {
	case kindSQL:
		return t.replayServer(r, st.text(lit))
	case kindLoad:
		_, err := t.in("wire.encode", r, "", func() error {
			t.encBuf = wire.EncodeBatch(t.encBuf[:0], loadRows)
			return nil
		})
		return err
	}
	if _, err := t.in("sqlgen.sql", r, "", func() error {
		sqls, err := tango.TransferSQL(t.c.mw.Cat, plan)
		t.acc["sqlgen.statements"] += float64(len(sqls))
		for _, s := range sqls {
			t.acc["sqlgen.sql_bytes"] += float64(len(s))
		}
		return err
	}); err != nil {
		return err
	}
	_, err := t.replayPlan(r, plan)
	return err
}

// replayPlan evaluates a plan bottom-up the way tango.Executor builds
// it, but one operator at a time over materialized inputs, so each
// transfer and each middleware operator gets its own span.
func (t *clientTrace) replayPlan(parent int, n *algebra.Node) (*rel.Relation, error) {
	c := t.c
	if n.Op == algebra.OpTM {
		return t.replayTransfer(parent, n)
	}
	left, err := t.replayPlan(parent, n.Left)
	if err != nil {
		return nil, err
	}
	var right *rel.Relation
	if n.Right != nil {
		if right, err = t.replayPlan(parent, n.Right); err != nil {
			return nil, err
		}
	}
	name, it, err := buildOp(n, c.mw.Cat, left, right)
	if err != nil {
		return nil, err
	}
	var out *rel.Relation
	d, err := t.in(name, parent, "", func() (err error) {
		out, err = rel.Drain(it) // opens and closes it
		return err
	})
	if err != nil {
		return nil, err
	}
	t.acc["exec.xxl"] += ms(d)
	t.acc["xxl.rows_in"] += float64(left.Cardinality())
	if right != nil {
		t.acc["xxl.rows_in"] += float64(right.Cardinality())
	}
	t.acc["xxl.rows_out"] += float64(out.Cardinality())
	return out, nil
}

// replayTransfer replays one T^M: the T^D loads beneath it, the SQL
// translation, the fetch over TCP and the server-side replays.
func (t *clientTrace) replayTransfer(parent int, n *algebra.Node) (out *rel.Relation, err error) {
	c := t.c
	gen := &sqlgen.Gen{Cat: c.mw.Cat, TempTables: map[*algebra.Node]string{}}
	var temps []string
	defer func() {
		for _, name := range temps {
			if derr := c.conn.DropTable(name); err == nil {
				err = derr
			}
		}
	}()
	var visit func(m *algebra.Node) error
	visit = func(m *algebra.Node) error {
		if m == nil {
			return nil
		}
		if m.Op != algebra.OpTD {
			if err := visit(m.Left); err != nil {
				return err
			}
			return visit(m.Right)
		}
		in, err := t.replayPlan(parent, m.Left)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("TMP_BENCH_%d_%d", t.id, len(temps)+1)
		if err := c.conn.CreateTable(name, in.Schema); err != nil {
			return err
		}
		temps = append(temps, name)
		gen.TempTables[m] = name
		d, err := t.in("client.load", parent, name, func() error {
			_, err := c.conn.Load(name, in.Tuples)
			return err
		})
		t.acc["exec.load"] += ms(d)
		return err
	}
	if err := visit(n.Left); err != nil {
		return nil, err
	}
	sql, _, err := gen.SQL(n.Left)
	if err != nil {
		return nil, err
	}
	d, err := t.in("client.fetch", parent, sql, func() (err error) {
		var fb client.Feedback
		out, fb, err = c.conn.QueryAll(sql)
		t.acc["client.round_trips"] += float64(fb.Batches)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.acc["exec.fetch"] += ms(d)
	// The operators above address columns by the plan's names.
	if out.Schema, err = n.Schema(c.mw.Cat); err != nil {
		return nil, err
	}
	return out, t.replayServer(parent, sql)
}

// replayServer replays one SQL string below the client: served and
// encoded by the server in-process, executed by the engine alone, and
// its batches decoded and encoded by the codec alone.
func (t *clientTrace) replayServer(parent int, sql string) error {
	h := t.c.h
	var payloads [][]byte
	if _, err := t.in("server.cursor", parent, "", func() error {
		cur, err := h.srv.Query(sql, 0)
		if err != nil {
			return err
		}
		for {
			p, err := cur.FetchBatch()
			if err != nil || p == nil {
				return errors.Join(err, cur.Close())
			}
			payloads = append(payloads, append([]byte(nil), p...)) // p is only valid until the next fetch
		}
	}); err != nil {
		return err
	}
	if _, err := t.in("engine.exec", parent, "", func() error {
		// Pulled row by row without keeping the rows, as the cursor does.
		it, err := h.db.Query(sql)
		if err != nil {
			return err
		}
		if err := it.Open(); err != nil {
			return errors.Join(err, it.Close())
		}
		for {
			_, ok, err := it.Next()
			if err != nil || !ok {
				return errors.Join(err, it.Close())
			}
			t.acc["engine.rows_out"]++
		}
	}); err != nil {
		return err
	}
	batches := make([][]types.Tuple, len(payloads))
	if _, err := t.in("wire.decode", parent, "", func() (err error) {
		for i, p := range payloads {
			if batches[i], err = wire.DecodeBatchInto(nil, p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	_, err := t.in("wire.encode", parent, "", func() error {
		for _, rows := range batches {
			t.encBuf = wire.EncodeBatch(t.encBuf[:0], rows)
		}
		return nil
	})
	for i, p := range payloads {
		t.acc["wire.bytes"] += float64(len(p))
		t.acc["wire.rows"] += float64(len(batches[i]))
	}
	t.payloads = payloads
	return err
}

// buildOp constructs the xxl operator for a middleware-resident plan
// node over materialized inputs, choosing the partitioned forms as
// tango.Executor does at the default parallelism. It returns the span
// name the operator is accounted under.
func buildOp(n *algebra.Node, cat algebra.Catalog, left, right *rel.Relation) (string, rel.Iterator, error) {
	p := runtime.GOMAXPROCS(0)
	in := left.Iter()
	cols := func(s types.Schema, names []string) ([]int, error) {
		idx := make([]int, len(names))
		for i, name := range names {
			if idx[i] = s.ColumnIndex(name); idx[i] < 0 {
				return nil, fmt.Errorf("replay: no column %q in %v", name, s.Names())
			}
		}
		return idx, nil
	}
	switch n.Op {
	case algebra.OpSort:
		keys, err := cols(left.Schema, n.Keys)
		if err != nil {
			return "", nil, err
		}
		srt := xxl.NewSort(in, keys)
		if p > 1 {
			srt.Parallelism = p
		}
		return "xxl.sort", srt, nil
	case algebra.OpCoalesce:
		t1, t2 := algebra.TimeColumns(left.Schema)
		return "xxl.coalesce", xxl.NewCoalesce(in, t1, t2), nil
	case algebra.OpTAggr:
		groupBy, err := cols(left.Schema, n.GroupBy)
		if err != nil {
			return "", nil, err
		}
		outSchema, err := n.Schema(cat)
		if err != nil {
			return "", nil, err
		}
		aggs := make([]xxl.AggSpec, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = xxl.AggSpec{Kind: xxl.AggKind(a.Fn)}
			if a.Fn != "COUNT" {
				if aggs[i].Col = left.Schema.ColumnIndex(a.Col); aggs[i].Col < 0 {
					return "", nil, fmt.Errorf("replay: no column %q", a.Col)
				}
			}
		}
		t1, t2 := algebra.TimeColumns(left.Schema)
		if p > 1 {
			return "xxl.taggr", xxl.NewPTAggr(in, groupBy, t1, t2, aggs, outSchema, p), nil
		}
		return "xxl.taggr", xxl.NewTAggr(in, groupBy, t1, t2, aggs, outSchema), nil
	case algebra.OpJoin, algebra.OpTJoin:
		lkeys, err := cols(left.Schema, n.LeftCols)
		if err != nil {
			return "", nil, err
		}
		rkeys, err := cols(right.Schema, n.RightCols)
		if err != nil {
			return "", nil, err
		}
		if n.Op == algebra.OpJoin {
			if p > 1 {
				return "xxl.other", xxl.NewPMergeJoin(in, right.Iter(), lkeys, rkeys, p), nil
			}
			return "xxl.other", xxl.NewMergeJoin(in, right.Iter(), lkeys, rkeys), nil
		}
		lt1, lt2 := algebra.TimeColumns(left.Schema)
		rt1, rt2 := algebra.TimeColumns(right.Schema)
		if p > 1 {
			return "xxl.tjoin", xxl.NewPTJoin(in, right.Iter(), lkeys, rkeys, lt1, lt2, rt1, rt2, p), nil
		}
		return "xxl.tjoin", xxl.NewTJoin(in, right.Iter(), lkeys, rkeys, lt1, lt2, rt1, rt2), nil
	case algebra.OpSelect:
		f, err := xxl.NewFilter(in, n.Pred)
		return "xxl.other", f, err
	case algebra.OpProject:
		outSchema, err := n.Schema(cat)
		if err != nil {
			return "", nil, err
		}
		src := make([]string, len(n.Cols))
		for i, pc := range n.Cols {
			src[i] = pc.Src
		}
		idx, err := cols(left.Schema, src)
		return "xxl.other", xxl.NewProject(in, idx, outSchema), err
	case algebra.OpDupElim:
		return "xxl.other", xxl.NewDupElim(in), nil
	}
	return "", nil, fmt.Errorf("replay: operator %v cannot run in the middleware", n.Op)
}

// counters is one reading of the layers' own cumulative counters.
type counters struct {
	admitted, queued, shed  int64
	rowsOut, rowsIn         int64
	hits, misses, evictions int64
	reads, writes           int64
	commits, fsyncs         int64
	commitWait              time.Duration
	loadedBytes             int64
	usage                   usage
}

// walMeter accumulates the WAL's growth from FileDisk.WALStats, which
// restarts from zero at every checkpoint, so it is sampled every round.
type walMeter struct{ total, last int64 }

func (m *walMeter) sample(h *host) {
	fd := h.db.FileDisk()
	if fd == nil {
		return
	}
	cur, _ := fd.WALStats()
	if cur >= m.last {
		m.total += cur - m.last
	} else {
		m.total += cur
	}
	m.last = cur
}

func (h *host) readCounters() counters {
	var k counters
	k.admitted, k.queued, k.shed = h.srv.Admitted(), h.srv.Queued(), h.srv.Shed()
	_, k.rowsOut, k.rowsIn = h.srv.Counters()
	pool := h.db.Pool().Snapshot()
	k.hits, k.misses, k.evictions = pool.Hits, pool.Misses, pool.Evictions
	io := h.db.Disk().Snapshot()
	k.reads, k.writes = io.Reads, io.Writes
	_, k.commitWait = h.db.CommitStats()
	if fd := h.db.FileDisk(); fd != nil {
		k.commits, _, k.fsyncs = fd.GroupCommitStats()
	}
	for _, c := range h.clients {
		k.loadedBytes += c.loadedBytes
	}
	k.usage = readUsage()
	return k
}

// perLayer lists every per-layer metric the traced run reports, with
// its unit; BENCHMARK.json carries the same names. Times are ms per
// round (the sum over the round's statements, median over the traced
// rounds) unless the name says otherwise.
var perLayer = []struct{ name, unit string }{
	{"tsql.parse_us", "us"},
	{"optimizer.optimize_ms", "ms"}, {"optimizer.candidates", "count"}, {"optimizer.classes", "count"},
	{"optimizer.elements", "count"}, {"optimizer.plans_costed", "count"},
	{"sqlgen.sql_us", "us"}, {"sqlgen.statements", "count"}, {"sqlgen.sql_bytes", "count"},
	{"tango.execute_ms", "ms"}, {"tango.mw_self_ms", "ms"},
	{"engine.exec_ms", "ms"}, {"engine.rows_out", "count"},
	{"server.cursor_ms", "ms"}, {"server.self_ms", "ms"},
	{"server.admitted", "count"}, {"server.queued", "count"}, {"server.shed", "count"},
	{"server.rows_in", "count"}, {"server.rows_out", "count"}, {"server.leaked_at_drain", "count"},
	{"wire.encode_ms", "ms"}, {"wire.decode_ms", "ms"}, {"wire.decode_allocs_per_batch", "count"}, {"wire.bytes_per_row", "count"},
	{"client.fetch_ms", "ms"}, {"client.wire_self_ms", "ms"}, {"client.round_trips", "count"}, {"client.load_ms", "ms"},
	{"xxl.taggr_ms", "ms"}, {"xxl.tjoin_ms", "ms"}, {"xxl.sort_ms", "ms"}, {"xxl.coalesce_ms", "ms"}, {"xxl.other_ms", "ms"},
	{"xxl.rows_in", "count"}, {"xxl.rows_out", "count"},
	{"storage.pool_hit_ratio", "ratio"}, {"storage.evictions_per_round", "count"},
	{"storage.page_reads_per_round", "count"}, {"storage.page_writes_per_round", "count"},
	{"storage.wal_bytes_per_user_byte", "ratio"}, {"storage.fsyncs_per_commit", "ratio"}, {"storage.commit_wait_ms", "ms"},
	{"runtime.gc_cycles_per_round", "count"}, {"runtime.gc_pause_ms_per_round", "ms"},
	{"tango.stmt_p50_ms.taggr", "ms"}, {"tango.stmt_p50_ms.tjoin", "ms"}, {"tango.stmt_p50_ms.coalesce", "ms"},
	{"tango.stmt_p50_ms.sel_taggr", "ms"}, {"tango.stmt_p50_ms.join", "ms"},
	{"tango.stmt_p50_ms.count", "ms"}, {"tango.stmt_p50_ms.filter", "ms"},
	{"tango.stmt_p50_ms.sort_scan", "ms"}, {"tango.stmt_p50_ms.join_dbms", "ms"},
	{"tango.stmt_p50_ms.forced_td", "ms"}, {"tango.stmt_p50_ms.load", "ms"},
	{"tango.stmt_p50_ms.count_poslog", "ms"}, {"tango.stmt_p50_ms.asof", "ms"},
	{"tango.round_p90_ms", "ms"},
	{"trace.round_p50_ms", "ms"}, {"trace.overhead_share", "ratio"}, {"trace.unattributed_share", "ratio"},
	{"trace.calib_ms", "ms"},
}

// untracedShare is the part of a traced run's measuring time spent on
// plain rounds: they give the layers' counters and per-statement
// medians undisturbed by replays, and the baseline of
// trace.overhead_share.
const untracedShare = 0.4

// traced is the per-layer run: one setup, a stretch of untraced rounds,
// then traced rounds on every client; spans go to trace_<workload>.json
// in the scratch directory.
func traced(rc runConfig) (*outcome, error) {
	o := &outcome{Metrics: map[string]metric{}}
	for _, m := range perLayer {
		o.set(m.name, 0)
	}
	h, err := setup(rc.w, rc.seed, rc.dir("traced"), newExpectations(rc.golden, rc.w, rc.seed), rc.warmup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// Phase 1: untraced rounds.
	runtime.GC()
	var wal walMeter
	wal.sample(h)
	walBefore := wal.total
	h.afterRound = func() { wal.sample(h) }
	before := h.readCounters()
	plain := h.run(time.Duration(float64(rc.seconds)*untracedShare), 0)
	after := h.readCounters()
	h.afterRound = nil

	// Phase 2: traced rounds. The clients run the timed half of a round
	// together, then the replay half together, so a timed statement
	// contends with the other clients' statements as in an untraced run
	// and never with a replay.
	traces := make([]*clientTrace, len(h.clients))
	t0 := time.Now()
	for i, c := range h.clients {
		traces[i] = &clientTrace{c: c, id: i, t0: t0}
	}
	together := func(half func(*clientTrace)) {
		var wg sync.WaitGroup
		for _, t := range traces {
			wg.Add(1)
			go func(t *clientTrace) {
				defer wg.Done()
				half(t)
			}(t)
		}
		wg.Wait()
	}
	budget := rc.seconds - time.Since(before.usage.wall)
	tracedRounds, tracedFailed := 0, 0
	for n := 0; n == 0 || time.Since(t0) < budget; n++ {
		together((*clientTrace).timedRound)
		together((*clientTrace).replayRound)
		runtime.GC() // the replays' garbage is not the next round's to pay for
		for _, t := range traces {
			tracedRounds++
			if err := errors.Join(t.errs...); err != nil {
				tracedFailed++
				if len(o.Notes) < 5 {
					o.Notes = append(o.Notes, err.Error())
				}
			}
		}
	}
	decodeAllocs := decodeAllocsPerBatch(traces[0].payloads)
	if err := h.close(); err != nil {
		o.fail(err)
	}

	o.Attempted = len(plain.rounds) + tracedRounds
	o.Failed += plain.failed + tracedFailed
	o.Notes = append(o.Notes, plain.failures...)

	// Layer times and counts: per-round sums, median over traced rounds.
	var rounds []map[string]float64
	var spans []span
	for _, t := range traces {
		rounds = append(rounds, t.rounds...)
		base := len(spans)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
	}
	med := func(f func(r map[string]float64) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	key := func(k string) func(map[string]float64) float64 {
		return func(r map[string]float64) float64 { return r[k] }
	}
	o.set("tsql.parse_us", 1000*med(key("tsql.parse")))
	o.set("optimizer.optimize_ms", med(key("optimizer.optimize")))
	for _, k := range []string{"optimizer.candidates", "optimizer.classes", "optimizer.elements", "optimizer.plans_costed",
		"sqlgen.statements", "sqlgen.sql_bytes", "engine.rows_out", "client.round_trips", "xxl.rows_in", "xxl.rows_out"} {
		o.set(k, med(key(k)))
	}
	o.set("sqlgen.sql_us", 1000*med(key("sqlgen.sql")))
	o.set("tango.execute_ms", med(key("tango.execute")))
	o.set("tango.mw_self_ms", med(func(r map[string]float64) float64 {
		return r["tango.execute"] - r["exec.fetch"] - r["exec.load"]
	}))
	o.set("engine.exec_ms", med(key("engine.exec")))
	o.set("server.cursor_ms", med(key("server.cursor")))
	o.set("server.self_ms", med(func(r map[string]float64) float64 { return r["server.cursor"] - r["engine.exec"] }))
	o.set("wire.encode_ms", med(key("wire.encode")))
	o.set("wire.decode_ms", med(key("wire.decode")))
	o.set("wire.decode_allocs_per_batch", decodeAllocs)
	o.set("wire.bytes_per_row", med(func(r map[string]float64) float64 {
		if r["wire.rows"] == 0 {
			return 0
		}
		return r["wire.bytes"] / r["wire.rows"]
	}))
	o.set("client.fetch_ms", med(key("client.fetch")))
	o.set("client.wire_self_ms", med(func(r map[string]float64) float64 {
		return r["client.fetch"] - r["server.cursor"] - r["wire.decode"]
	}))
	o.set("client.load_ms", med(key("client.load")))
	for _, op := range []string{"taggr", "tjoin", "sort", "coalesce", "other"} {
		o.set("xxl."+op+"_ms", med(key("xxl."+op)))
	}
	tracedP50 := med(key("round.wall"))
	untracedP50 := median(plain.rounds)
	o.set("trace.round_p50_ms", tracedP50)
	o.set("trace.overhead_share", (tracedP50-untracedP50)/untracedP50)
	// Layer times are as measured; calibRefMs over this scales them to
	// the reference speed the end-to-end times are reported at.
	o.set("trace.calib_ms", median(plain.calib))
	o.set("trace.unattributed_share", med(func(r map[string]float64) float64 {
		attributed := r["tsql.parse"] + r["optimizer.optimize"] + r["exec.fetch"] + r["exec.load"] + r["exec.xxl"] + r["direct"]
		return 1 - attributed/r["round.wall"]
	}))

	// Counters: deltas over the untraced rounds.
	n := float64(len(plain.rounds))
	per := func(a, b int64) float64 { return float64(b-a) / n }
	o.set("server.admitted", per(before.admitted, after.admitted))
	o.set("server.queued", float64(after.queued-before.queued))
	o.set("server.shed", float64(after.shed-before.shed))
	o.set("server.rows_in", per(before.rowsIn, after.rowsIn))
	o.set("server.rows_out", per(before.rowsOut, after.rowsOut))
	o.set("server.leaked_at_drain", float64(h.leaked))
	if touched := after.hits - before.hits + after.misses - before.misses; touched > 0 {
		o.set("storage.pool_hit_ratio", float64(after.hits-before.hits)/float64(touched))
	}
	o.set("storage.evictions_per_round", per(before.evictions, after.evictions))
	o.set("storage.page_reads_per_round", per(before.reads, after.reads))
	o.set("storage.page_writes_per_round", per(before.writes, after.writes))
	if user := after.loadedBytes - before.loadedBytes; user > 0 {
		o.set("storage.wal_bytes_per_user_byte", float64(wal.total-walBefore)/float64(user))
	}
	if commits := after.commits - before.commits; commits > 0 {
		o.set("storage.fsyncs_per_commit", float64(after.fsyncs-before.fsyncs)/float64(commits))
	}
	o.set("storage.commit_wait_ms", ms(after.commitWait-before.commitWait)/n)
	o.set("runtime.gc_cycles_per_round", float64(after.usage.gcCycles-before.usage.gcCycles)/n)
	o.set("runtime.gc_pause_ms_per_round", ms(after.usage.gcPause-before.usage.gcPause)/n)
	for i, st := range rc.w.stmts {
		o.set("tango.stmt_p50_ms."+st.name, median(plain.stmts[i]))
	}
	// The 90th percentile of the untraced rounds. It is not an end-to-end
	// metric because its spread over ten runs exceeded 10 % on two
	// workloads even after scaling.
	o.set("tango.round_p90_ms", percentile(sortedCopy(plain.rounds), 0.90))
	o.Correct = o.Failed == 0

	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{rc.w.name, rc.seed, spans})
	if err != nil {
		return nil, err
	}
	return o, os.WriteFile(filepath.Join(rc.scratch, "trace_"+rc.w.name+".json"), data, 0o644)
}

// decodeAllocsPerBatch counts the heap allocations of decoding one
// batch the way the client does, recycling the row-header slice. It
// runs after the clients have stopped, so nothing else allocates.
func decodeAllocsPerBatch(payloads [][]byte) float64 {
	if len(payloads) == 0 {
		return 0
	}
	var dst []types.Tuple
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, p := range payloads {
		dst, _ = wire.DecodeBatchInto(dst[:0], p) // decoded without error in the replay
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(payloads))
}
