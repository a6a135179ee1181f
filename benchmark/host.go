package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/uis"
	"tango/internal/wire"
)

// histogramBuckets is the one middleware option the benchmark sets;
// everything else is the shipped default (adaptive cost factors on,
// parallelism = GOMAXPROCS, no retry policy, no plan checking).
const histogramBuckets = 10

// admission is the server's admission control, on at the load
// generator's shipped defaults. The closed loop never has more
// statements open than clients, so nothing should queue or be shed;
// the per-layer counters report it if something does.
var admission = server.AdmissionConfig{MaxInFlight: 64, MaxQueue: 256, QueueWait: 250 * time.Millisecond}

// durablePoolPages is the durable_td buffer pool: 0.5 MiB, half of
// POSITION's ~1 MiB heap, so every scan evicts. The in-memory
// workloads keep the engine default (16 MiB) and fit.
const durablePoolPages = 64

// host is the system under test in one process: the DBMS (engine
// behind a TCP server on loopback) and the middleware clients dialled
// into it.
type host struct {
	w       *workload
	dir     string // durable store directory; "" for the in-memory store
	db      *engine.DB
	srv     *server.Server
	tcp     *server.TCPServer
	tr      *client.Transport // shared by the clients when there are several
	clients []*clientState
	expect  *expectations
	// leaked counts cursors, temp tables and sessions found at drain.
	leaked int
	// afterRound, when set, is called after every round of run, one
	// call at a time (the traced run samples counters there).
	afterRound func()
}

// clientState is one closed-loop caller: a session, its middleware
// (nil when the workload is plain SQL only) and its literal stream.
type clientState struct {
	h    *host
	conn *client.Conn
	mw   *tango.Middleware
	lits *rand.Rand

	// durable_td bookkeeping: rows acknowledged into POSLOG since it
	// was last recreated, in total and per PosID.
	logSeed   int64
	logRounds int
	logRows   int64
	logByPos  map[int64]int64
	// loadedBytes is the user data shipped DBMS-ward (POSLOG batches and
	// T^D temp tables), the base of the WAL write amplification.
	loadedBytes int64
}

// setup generates the data from seed, boots the DBMS in dir (durable
// workloads) or in memory, loads and analyzes it over the wire, and
// runs warmup rounds on every client.
func setup(w *workload, seed int64, dir string, expect *expectations, warmup int) (h *host, err error) {
	g := &uis.Generator{Seed: seed}
	positions := g.Positions(w.posRows)
	employees := g.Employees(w.empRows)

	h = &host{w: w, expect: expect}
	defer func() {
		if err != nil {
			h.abort()
			h = nil
		}
	}()
	if w.durable {
		h.dir = dir
		h.db, _, err = engine.OpenAt(dir, engine.Config{BufferPoolPages: durablePoolPages})
		if err != nil {
			return h, err
		}
	} else {
		h.db = engine.Open(engine.Config{})
	}
	h.srv = server.New(h.db, wire.Latency{})
	h.tcp, err = server.ListenAndServe(h.srv, "127.0.0.1:0", server.TCPConfig{Admission: admission})
	if err != nil {
		return h, err
	}
	needMW := false
	for _, st := range w.stmts {
		if st.kind == kindTSQL || st.kind == kindPlan {
			needMW = true
		}
	}
	if w.clients > 1 {
		h.tr = client.DialTransport(h.tcp.Addr())
	}
	for i := 0; i < w.clients; i++ {
		var conn *client.Conn
		if h.tr != nil {
			conn, err = h.tr.Conn()
		} else {
			conn, err = client.Dial(h.tcp.Addr())
		}
		if err != nil {
			return h, err
		}
		c := &clientState{h: h, conn: conn, lits: literalStream(seed, i),
			logSeed: seed*1_000_003 + int64(i)*7919, logByPos: map[int64]int64{}}
		if needMW {
			c.mw = tango.OpenConn(conn, tango.Options{HistogramBuckets: histogramBuckets})
		}
		h.clients = append(h.clients, c)
	}

	conn := h.clients[0].conn
	if err = conn.CreateTable("POSITION", uis.PositionSchema()); err != nil {
		return h, err
	}
	if _, err = conn.Load("POSITION", positions); err != nil {
		return h, err
	}
	if err = conn.CreateTable("EMPLOYEE", uis.EmployeeSchema()); err != nil {
		return h, err
	}
	if _, err = conn.Load("EMPLOYEE", employees); err != nil {
		return h, err
	}
	if w.durable {
		if err = conn.CreateTable("POSLOG", uis.PositionSchema()); err != nil {
			return h, err
		}
	}
	for _, ddl := range []string{
		"CREATE INDEX pos_posid ON POSITION (PosID)",
		"CREATE INDEX pos_empid ON POSITION (EmpID)",
		"CREATE INDEX emp_empid ON EMPLOYEE (EmpID)",
		fmt.Sprintf("ANALYZE POSITION HISTOGRAM %d", histogramBuckets),
		fmt.Sprintf("ANALYZE EMPLOYEE HISTOGRAM %d", histogramBuckets),
	} {
		if _, err = conn.Exec(ddl); err != nil {
			return h, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	if warmup > 0 {
		if res := h.run(0, warmup); res.failed > 0 {
			return h, fmt.Errorf("warm-up: %s", strings.Join(res.failures, "; "))
		}
	}
	return h, nil
}

// literalStream is the seeded stream client number i draws its
// statement literals from: the same for equal seeds, distinct across
// seeds and across the clients of one run.
func literalStream(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + int64(i)))
}

// abort releases whatever a failed setup had opened.
func (h *host) abort() {
	for _, c := range h.clients {
		_ = c.conn.Close()
	}
	if h.tr != nil {
		_ = h.tr.Close()
	}
	if h.tcp != nil {
		_ = h.tcp.Close()
	}
	if h.db != nil {
		_ = h.db.Close()
	}
}

// close ends the sessions, audits the server for anything they left
// behind, drains and closes the DBMS and, for a durable store, reopens
// the directory to check that every acknowledged POSLOG row survived.
func (h *host) close() error {
	var errs []error
	for _, c := range h.clients {
		if err := c.conn.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close session: %w", err))
		}
	}
	if h.tr != nil {
		_ = h.tr.Close()
	}
	// Session close is acknowledged before the server finishes its
	// bookkeeping on another goroutine; give that a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for h.srv.LiveSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := h.srv.OpenCursors(); n != 0 {
		h.leaked += int(n)
		errs = append(errs, fmt.Errorf("leak: %d open cursor(s) at drain", n))
	}
	if t := h.srv.TempTables(); len(t) != 0 {
		h.leaked += len(t)
		errs = append(errs, fmt.Errorf("leak: temp tables %v at drain", t))
	}
	if n := h.srv.LiveSessions(); n != 0 {
		h.leaked += n
		errs = append(errs, fmt.Errorf("leak: %d live session(s) at drain", n))
	}
	if err := h.tcp.Close(); err != nil {
		errs = append(errs, fmt.Errorf("drain: %w", err))
	}
	if err := h.db.Close(); err != nil {
		errs = append(errs, fmt.Errorf("close db: %w", err))
	}
	if h.w.durable {
		if err := h.checkReopen(); err != nil {
			errs = append(errs, err)
		}
		_ = os.RemoveAll(h.dir)
	}
	return errors.Join(errs...)
}

// checkReopen recovers the closed durable store from its directory and
// requires POSLOG to hold exactly the acknowledged rows.
func (h *host) checkReopen() error {
	var want int64
	for _, c := range h.clients {
		want += c.logRows
	}
	db, _, err := engine.OpenAt(h.dir, engine.Config{BufferPoolPages: durablePoolPages})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	out, err := db.QueryAll("SELECT COUNT(*) FROM POSLOG")
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if got := out.Tuples[0][0].AsInt(); got != want {
		return fmt.Errorf("reopen: POSLOG holds %d rows, %d were acknowledged", got, want)
	}
	return nil
}

// exec runs one statement the way an application would and returns
// its result (nil for a load).
func (c *clientState) exec(st *stmt, lit int, loadRows []types.Tuple) (*rel.Relation, error) {
	switch st.kind {
	case kindTSQL:
		plan, err := tsql.Parse(st.text(lit), c.mw.Cat)
		if err != nil {
			return nil, err
		}
		out, _, err := c.mw.Run(plan)
		return out, err
	case kindSQL:
		out, _, err := c.conn.QueryAll(st.text(lit))
		return out, err
	case kindPlan:
		ex := &tango.Executor{Conn: c.conn, Cat: c.mw.Cat}
		out, err := ex.Run(st.plan(lit))
		for _, fb := range ex.Feedback() {
			if strings.HasPrefix(fb.SQL, "LOAD") { // the plan's T^D
				c.loadedBytes += fb.Bytes
			}
		}
		return out, err
	case kindLoad:
		fb, err := c.conn.Load("POSLOG", loadRows)
		c.loadedBytes += fb.Bytes
		if err == nil && fb.Rows != int64(len(loadRows)) {
			err = fmt.Errorf("load acknowledged %d of %d rows", fb.Rows, len(loadRows))
		}
		return nil, err
	}
	return nil, fmt.Errorf("unknown statement kind %d", st.kind)
}

// draw picks the statement's inputs for this round, outside any timed
// section: its literal from the seeded stream, and for a load the rows
// of the next POSLOG batch.
func (c *clientState) draw(st *stmt) (lit int, loadRows []types.Tuple) {
	if st.seeded {
		lit = c.lits.Intn(numLiterals)
	}
	if st.kind == kindLoad {
		c.logSeed++
		loadRows = (&uis.Generator{Seed: c.logSeed}).Positions(poslogBatch)
	}
	return lit, loadRows
}

func (c *clientState) noteLoaded(rows []types.Tuple) {
	c.logRows += int64(len(rows))
	for _, t := range rows {
		c.logByPos[t[0].AsInt()]++
	}
}

// endRound is the harness's housekeeping between rounds, outside any
// timed section: it recreates POSLOG every poslogResetEvery rounds.
func (c *clientState) endRound() error {
	if !c.h.w.durable {
		return nil
	}
	c.logRounds++
	if c.logRounds%poslogResetEvery != 0 {
		return nil
	}
	if err := c.conn.DropTable("POSLOG"); err != nil {
		return err
	}
	if err := c.conn.CreateTable("POSLOG", uis.PositionSchema()); err != nil {
		return err
	}
	c.logRows = 0
	clear(c.logByPos)
	return nil
}

// round runs the workload's statement list once, timing each
// statement and checking each result outside the timed sections. It
// returns the per-statement durations; a non-nil error fails the round.
func (c *clientState) round(durs []time.Duration) error {
	var errs []error
	for i := range c.h.w.stmts {
		st := &c.h.w.stmts[i]
		lit, loadRows := c.draw(st)
		start := time.Now()
		out, err := c.exec(st, lit, loadRows)
		durs[i] = time.Since(start)
		if err == nil {
			err = c.check(st, lit, out, loadRows)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s[%d]: %w", st.name, lit, err))
		}
	}
	if err := c.endRound(); err != nil {
		errs = append(errs, fmt.Errorf("recreate POSLOG: %w", err))
	}
	return errors.Join(errs...)
}

// check verifies one statement's result against what is known about it.
func (c *clientState) check(st *stmt, lit int, out *rel.Relation, loadRows []types.Tuple) error {
	switch {
	case st.kind == kindLoad:
		c.noteLoaded(loadRows)
		return nil
	case st.name == "count_poslog":
		// POSLOG changes every round; the harness knows what it acknowledged.
		want := c.logByPos[poslogKey(lit)]
		if out.Cardinality() != 1 || out.Tuples[0][0].AsInt() != want {
			return fmt.Errorf("got %v, want COUNT = %d", out.Tuples, want)
		}
		return nil
	}
	return c.h.expect.check(st.name, lit, checksum(out))
}

// runResult is what one timed stretch of rounds produced.
type runResult struct {
	rounds   []float64   // per-round latency, ms (sum of its statements)
	stmts    [][]float64 // [statement][round] latency, ms
	failed   int
	failures []string // first few failure messages
	before   usage
	after    usage
	calib    []float64 // calibration times taken between rounds, ms
}

// run drives every client in a closed loop: a client starts its next
// round when the previous one has returned. It stops after maxRounds
// rounds per client (0 = no limit) or once d has elapsed, whichever
// comes first, always finishing the round in progress.
func (h *host) run(d time.Duration, maxRounds int) *runResult {
	res := &runResult{stmts: make([][]float64, len(h.w.stmts))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.before = readUsage()
	start := res.before.wall
	for _, c := range h.clients {
		wg.Add(1)
		go func(c *clientState) {
			defer wg.Done()
			durs := make([]time.Duration, len(h.w.stmts))
			cal := newCalibrator()
			defer func() {
				mu.Lock()
				res.calib = append(res.calib, cal.samples...)
				mu.Unlock()
			}()
			var lastCal time.Time
			for n := 0; (maxRounds == 0 || n < maxRounds) && (d == 0 || time.Since(start) < d); n++ {
				if time.Since(lastCal) >= calibEvery {
					cal.sample()
					lastCal = time.Now()
				}
				err := c.round(durs)
				mu.Lock()
				var total time.Duration
				for i, sd := range durs {
					total += sd
					res.stmts[i] = append(res.stmts[i], ms(sd))
				}
				res.rounds = append(res.rounds, ms(total))
				if err != nil {
					res.failed++
					if len(res.failures) < 5 {
						res.failures = append(res.failures, err.Error())
					}
				}
				if h.afterRound != nil {
					h.afterRound()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.after = readUsage()
	return res
}
