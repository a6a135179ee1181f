// Command tango is an interactive shell for the temporal middleware:
// it boots an embedded DBMS, loads the synthetic UIS dataset, and
// accepts temporal SQL at a prompt. Regular SQL is forwarded to the
// DBMS untouched; VALIDTIME queries go through the middleware
// optimizer and its split execution.
//
//	tango> VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID ORDER BY PosID
//	tango> EXPLAIN VALIDTIME SELECT ...
//	tango> EXPLAIN ANALYZE VALIDTIME SELECT ...
//	tango> SELECT COUNT(*) FROM POSITION
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tango/internal/bench"
	"tango/internal/client"
	"tango/internal/fault"
	"tango/internal/rel"
	"tango/internal/server"
	"tango/internal/tango"
	"tango/internal/telemetry"
	"tango/internal/tsql"
)

func main() {
	posRows := flag.Int("position", 8400, "POSITION rows to generate (0 = paper full size)")
	empRows := flag.Int("employee", 5000, "EMPLOYEE rows to generate (0 = paper full size)")
	calibrate := flag.Int("calibrate", 0, "calibration sample rows (0 = default cost factors)")
	command := flag.String("c", "", "run one statement and exit (scriptable mode)")
	sessions := flag.Int("sessions", 1, "with -c: run the statement concurrently on this many independent sessions and report group-commit amortization (commits, fsyncs, fsyncs/commit, wall time)")
	metricsAddr := flag.String("metrics", "", `serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. "127.0.0.1:9090")`)
	listen := flag.String("listen", "", `serve the framed wire protocol over TCP on this address (e.g. "127.0.0.1:7777"); attack it with tangoload -addr`)
	maxInFlight := flag.Int("max-inflight", 0, "with -listen: admission-control concurrent statement limit (0 = admit everything)")
	maxQueue := flag.Int("max-queue", 256, "with -listen and -max-inflight: admission wait-queue bound")
	checkPlans := flag.Bool("checkplans", true, "validate every optimized plan and executor build with the planck plan checker")
	retries := flag.Int("retries", client.DefaultRetryPolicy().MaxAttempts, "max attempts per idempotent wire call (1 = no retries, 0 = disable the resilience layer)")
	opTimeout := flag.Duration("op-timeout", client.DefaultRetryPolicy().OpTimeout, "per-attempt deadline for a wire call (0 = none)")
	chaos := flag.String("chaos", "", `inject a deterministic fault schedule into the wire and the store, e.g. "seed=7;stall=2ms;fetch@3=drop;load~partial=0.05"; wal@N/page@N traps (drop, torn, partial) kill the store at that physical write and require -data-dir — restart with the same -data-dir to recover`)
	chaosSeed := flag.Int64("chaos-seed", 0, "override the fault schedule's seed (replays a chaos run; 0 = keep the schedule's own seed)")
	dataDir := flag.String("data-dir", "", "persist the database in this directory (WAL-backed durable store; a directory that already holds a database is recovered and reopened; empty = in-memory)")
	trace := flag.Bool("trace", true, "end-to-end distributed tracing: stitched client+DBMS span trees, per-query flight recorder (\\trace, \\flight)")
	flightDir := flag.String("flight-dir", "", "persist the flight recorder's last-N query traces to <dir>/flight.jsonl (crash-surviving; implies -trace; defaults to -data-dir when durable)")
	flightSize := flag.Int("flight-size", 64, "query traces retained in the flight recorder ring")
	flag.Parse()

	quiet := *command != ""
	if !quiet {
		fmt.Println("TANGO temporal middleware — loading UIS data...")
	}
	retry := client.RetryPolicy{} // -retries=0 disables the resilience layer
	if *retries > 0 {
		retry = client.DefaultRetryPolicy()
		retry.MaxAttempts = *retries
		retry.OpTimeout = *opTimeout
	}
	var faults *fault.Injector
	if *chaos != "" {
		sched, err := fault.ParseSchedule(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		if *chaosSeed != 0 {
			sched.Seed = *chaosSeed
		}
		faults = sched.Injector()
		if !quiet {
			fmt.Printf("chaos: injecting %q\n", sched.String())
		}
	}
	reg := telemetry.NewRegistry()
	sys, err := bench.NewSystem(bench.Config{
		PositionRows: *posRows,
		EmployeeRows: *empRows,
		Histograms:   20,
		Calibrate:    *calibrate,
		Metrics:      reg,
		Retry:        retry,
		Faults:       faults,
		DataDir:      *dataDir,
		Trace:        *trace || *flightDir != "",
		FlightSize:   *flightSize,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "boot:", err)
		os.Exit(1)
	}
	defer sys.Close()
	sys.MW.CheckPlans = *checkPlans
	if *flightDir != "" && *flightDir != *dataDir {
		// Read the previous run's log (if any) before SetDir truncates it
		// for this process.
		pre, err := telemetry.LoadFlight(filepath.Join(*flightDir, telemetry.FlightFile))
		if err != nil {
			fmt.Fprintln(os.Stderr, "flight-dir:", err)
			os.Exit(1)
		}
		if len(pre) > 0 {
			sys.PreCrashFlight = pre
		}
		if err := sys.Flight.SetDir(*flightDir); err != nil {
			fmt.Fprintln(os.Stderr, "flight-dir:", err)
			os.Exit(1)
		}
	}
	if pre := sys.PreCrashFlight; len(pre) > 0 && !quiet {
		last := pre[len(pre)-1]
		fmt.Printf("flight: recovered %d pre-crash query trace(s); last: trace %s %q",
			len(pre), last.TraceID, last.Query)
		if last.Error != "" {
			fmt.Printf(" (error: %s)", last.Error)
		}
		fmt.Println()
	}
	if st := sys.Recovery; st != nil && !quiet {
		fmt.Printf("data-dir %s: recovered in %v — %d WAL record(s) replayed, %d torn tail(s), %d checksum failure(s) repaired, %d load(s) rolled back\n",
			*dataDir, st.Duration.Round(time.Millisecond), st.ReplayedRecords,
			st.TornTails, st.ChecksumFailures, st.RolledBackLoads)
		if sys.Reopened {
			fmt.Println("existing database reopened; UIS load skipped (run ANALYZE output is fresh)")
		}
	}
	if *metricsAddr != "" {
		telemetry.RegisterRuntimeMetrics(reg)
		health := func() error {
			if sys.DB.Durable() && sys.DB.FileDisk().Crashed() {
				return fmt.Errorf("durable store crashed")
			}
			return nil
		}
		addr, stop, err := telemetry.Serve(*metricsAddr, reg, health)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		defer stop()
		if !quiet {
			fmt.Printf("metrics on http://%s/metrics (also /metrics.json, /debug/vars, /debug/pprof, /healthz)\n", addr)
		}
	}
	if *listen != "" {
		ts, err := server.ListenAndServe(sys.Srv, *listen, server.TCPConfig{
			Admission: server.AdmissionConfig{
				MaxInFlight: *maxInFlight,
				MaxQueue:    *maxQueue,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "listen:", err)
			os.Exit(1)
		}
		defer ts.Close() // graceful drain: stop accepting, finish in-flight
		if !quiet {
			fmt.Printf("wire protocol on tcp://%s", ts.Addr())
			if *maxInFlight > 0 {
				fmt.Printf(" (admission: %d in flight, queue %d)", *maxInFlight, *maxQueue)
			}
			fmt.Println()
		}
	}
	if *sessions > 1 && *command == "" {
		fmt.Fprintln(os.Stderr, "-sessions > 1 requires -c (the concurrent mode runs one statement per session)")
		os.Exit(1)
	}
	if *command != "" {
		stmt := strings.TrimSpace(*command)
		var err error
		if *sessions > 1 {
			err = runConcurrent(sys, stmt, *sessions)
		} else {
			err = dispatch(sys, stmt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("loaded POSITION (%d rows), EMPLOYEE (%d rows)\n", sys.PositionRows, sys.EmployeeRows)
	fmt.Println(`type temporal SQL ("VALIDTIME SELECT ..."), regular SQL, EXPLAIN <query>,`)
	fmt.Println(`EXPLAIN ANALYZE <query> (measured span + operator profile), \tables,`)
	fmt.Println(`\stats <table>, \factors, \trace (last query's spans), \flight (last-N`)
	fmt.Println(`query traces as JSONL), \top (per-session accounting), \metrics, or \q`)

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("tango> ")
		if !in.Scan() {
			break
		}
		line := strings.TrimSpace(in.Text())
		switch {
		case line == "":
			continue
		case line == `\q` || strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit"):
			return
		}
		if err := dispatch(sys, line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func dispatch(sys *bench.System, line string) error {
	upper := strings.ToUpper(line)
	switch {
	case line == `\tables`:
		for _, name := range sys.DB.TableNames() {
			t, err := sys.DB.Table(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-24s %s\n", name, t.Schema)
		}
		return nil

	case strings.HasPrefix(line, `\stats `):
		table := strings.TrimSpace(line[len(`\stats `):])
		stats, err := sys.MW.Conn.TableStats(table, 20)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d rows, %d blocks, %.1f B/row\n",
			stats.Table, stats.Cardinality, stats.Blocks, stats.AvgTupleSize)
		schema, err := sys.MW.Conn.TableSchema(table)
		if err != nil {
			return err
		}
		for _, col := range schema.Cols {
			cs := stats.Column(col.Name)
			if cs == nil {
				continue
			}
			hist := ""
			if cs.Histogram != nil {
				hist = fmt.Sprintf(", %d-bucket histogram", cs.Histogram.NumBuckets())
			}
			idx := ""
			if cs.HasIndex {
				idx = fmt.Sprintf(", indexed (clustering %d)", cs.ClusteringFactor)
			}
			fmt.Printf("  %-12s min=%v max=%v distinct=%d%s%s\n",
				cs.Name, cs.Min, cs.Max, cs.Distinct, hist, idx)
		}
		return nil

	case line == `\factors`:
		f := sys.MW.Model.F
		fmt.Printf("p_tm=%.5f p_td=%.5f p_sem=%.5f\n", f.TM, f.TD, f.SelM)
		fmt.Printf("p_taggm1=%.5f p_taggm2=%.5f p_taggd1=%.5f p_taggd2=%.5f\n",
			f.TAggrM1, f.TAggrM2, f.TAggrD1, f.TAggrD2)
		fmt.Printf("sortM=%.5f sortD=%.5f joinM=%.5f joinD=%.5f scanD=%.5f\n",
			f.SortM, f.SortD, f.JoinM, f.JoinD, f.ScanD)
		return nil

	case line == `\trace`:
		tr := sys.MW.LastTrace()
		if tr == nil {
			return fmt.Errorf("no traced query yet")
		}
		fmt.Print(tr.Render())
		return nil

	case line == `\metrics`:
		return sys.Metrics.WritePrometheus(os.Stdout)

	case line == `\flight`:
		if sys.Flight == nil {
			return fmt.Errorf("tracing is off (-trace=false); no flight recorder")
		}
		if sys.Flight.Len() == 0 {
			return fmt.Errorf("no recorded query yet")
		}
		return sys.Flight.WriteJSONL(os.Stdout)

	case line == `\top`:
		return printSessionTop(sys)

	case strings.HasPrefix(upper, "EXPLAIN ANALYZE "):
		query := strings.TrimSpace(line[len("EXPLAIN ANALYZE "):])
		plan, err := tsql.Parse(query, sys.MW.Cat)
		if err != nil {
			return err
		}
		report, _, err := sys.MW.ExplainAnalyze(plan)
		if err != nil {
			return err
		}
		fmt.Print(report)
		return nil

	case strings.HasPrefix(upper, "EXPLAIN "):
		query := strings.TrimSpace(line[len("EXPLAIN "):])
		plan, err := tsql.Parse(query, sys.MW.Cat)
		if err != nil {
			return err
		}
		out, err := sys.MW.Explain(plan)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil

	case strings.HasPrefix(upper, "VALIDTIME"):
		plan, err := tsql.Parse(line, sys.MW.Cat)
		if err != nil {
			return err
		}
		start := time.Now()
		out, res, err := sys.MW.Run(plan)
		if err != nil {
			return err
		}
		printRelation(out, 40)
		fmt.Printf("%d rows in %.3fs (optimizer: %d classes, %d elements, plan %s)\n",
			out.Cardinality(), time.Since(start).Seconds(),
			res.Classes, res.Elements, bench.PlanSignature(res.Best))
		return nil

	case strings.HasPrefix(upper, "SELECT"):
		start := time.Now()
		var out *rel.Relation
		err := tracedPassthrough(sys, "passthrough", line, func() error {
			var qerr error
			out, _, qerr = sys.MW.Conn.QueryAll(line)
			return qerr
		})
		if err != nil {
			return err
		}
		printRelation(out, 40)
		fmt.Printf("%d rows in %.3fs (DBMS passthrough)\n", out.Cardinality(), time.Since(start).Seconds())
		return nil

	default:
		// DDL/DML passthrough.
		var n int64
		err := tracedPassthrough(sys, "passthrough", line, func() error {
			var xerr error
			n, xerr = sys.MW.Conn.Exec(line)
			return xerr
		})
		if err != nil {
			return err
		}
		fmt.Printf("ok (%d rows)\n", n)
		return nil
	}
}

// runConcurrent executes one statement simultaneously on n
// independent sessions sharing the embedded server, then reports how
// the engine amortized the commits: total commits, WAL fsyncs, and
// fsyncs per commit (group commit drives the ratio below 1 under
// contention on a durable store).
func runConcurrent(sys *bench.System, stmt string, n int) error {
	upper := strings.ToUpper(stmt)
	isValidtime := strings.HasPrefix(upper, "VALIDTIME")
	isSelect := strings.HasPrefix(upper, "SELECT")
	mws := make([]*tango.Middleware, n)
	for i := range mws {
		mws[i] = sys.NewSessionMW()
		defer mws[i].Conn.Close()
	}
	commits0, _ := sys.DB.CommitStats()
	var fsyncs0 int64
	if sys.DB.Durable() {
		_, _, fsyncs0 = sys.DB.FileDisk().GroupCommitStats()
	}
	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, mw := range mws {
		wg.Add(1)
		go func(i int, mw *tango.Middleware) {
			defer wg.Done()
			switch {
			case isValidtime:
				plan, err := tsql.Parse(stmt, mw.Cat)
				if err != nil {
					errs[i] = err
					return
				}
				out, _, err := mw.Run(plan)
				if err == nil && i == 0 {
					fmt.Printf("session 0: %d rows\n", out.Cardinality())
				}
				errs[i] = err
			case isSelect:
				out, _, err := mw.Conn.QueryAll(stmt)
				if err == nil && i == 0 {
					fmt.Printf("session 0: %d rows\n", out.Cardinality())
				}
				errs[i] = err
			default:
				_, errs[i] = mw.Conn.Exec(stmt)
			}
		}(i, mw)
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	commits1, wait := sys.DB.CommitStats()
	commits := commits1 - commits0
	fmt.Printf("%d sessions, %d commit(s) in %.3fs", n, commits, wall.Seconds())
	if sys.DB.Durable() {
		_, _, fsyncs1 := sys.DB.FileDisk().GroupCommitStats()
		fsyncs := fsyncs1 - fsyncs0
		ratio := 0.0
		if commits > 0 {
			ratio = float64(fsyncs) / float64(commits)
		}
		fmt.Printf(", %d fsync(s) = %.2f fsyncs/commit, commit wait %.3fs total", fsyncs, ratio, wait.Seconds())
	}
	fmt.Println()
	return nil
}

// tracedPassthrough wraps a DBMS passthrough statement in a root query
// span so passthrough SQL shows up in the flight recorder and the query
// latency histogram like middleware queries do — in particular, a
// statement that dies on a store crash leaves a durable flight entry.
// With tracing off it just runs f.
func tracedPassthrough(sys *bench.System, kind, sql string, f func() error) error {
	if sys.Flight == nil {
		return f()
	}
	root := telemetry.NewSpan("query")
	root.Set("sql", sql)
	root.Set("kind", kind)
	pop := sys.MW.Conn.PushTrace(root)
	err := f()
	pop()
	if err != nil {
		root.Set("error", err.Error())
	}
	root.Finish()
	telemetry.Stitch(root, sys.MW.Conn.TakeRemoteSpans(root.TraceID()))
	if sys.Metrics != nil {
		sys.Metrics.Histogram("tango_query_seconds", nil, telemetry.LatencyBuckets).
			Observe(root.Elapsed().Seconds())
	}
	sys.Flight.Record(root, kind, err)
	return err
}

// printSessionTop renders the per-session accounting counters
// (tango_session_*) as one row per session: what each connection has
// pulled over the wire and cost the engine so far.
func printSessionTop(sys *bench.System) error {
	if sys.Metrics == nil {
		return fmt.Errorf("metrics are off")
	}
	type acct struct{ rows, bytes, batches, stmts, hits, misses, evics, wal, spill, temp float64 }
	sessions := map[string]*acct{}
	get := func(id string) *acct {
		a, ok := sessions[id]
		if !ok {
			a = &acct{}
			sessions[id] = a
		}
		return a
	}
	for _, s := range sys.Metrics.Snapshot() {
		if !strings.HasPrefix(s.Name, "tango_session_") {
			continue
		}
		id := s.Labels["session"]
		if id == "" {
			continue
		}
		a := get(id)
		switch s.Name {
		case "tango_session_rows_total":
			a.rows += s.Value
		case "tango_session_bytes_total":
			a.bytes += s.Value
		case "tango_session_batches_total":
			a.batches += s.Value
		case "tango_session_statements_total":
			a.stmts += s.Value
		case "tango_session_pool_hits_total":
			a.hits += s.Value
		case "tango_session_pool_misses_total":
			a.misses += s.Value
		case "tango_session_pool_evictions_total":
			a.evics += s.Value
		case "tango_session_wal_bytes_total":
			a.wal += s.Value
		case "tango_session_spill_bytes_total":
			a.spill += s.Value
		case "tango_session_temp_bytes_total":
			a.temp += s.Value
		}
	}
	if len(sessions) == 0 {
		return fmt.Errorf("no session activity recorded yet")
	}
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("%-8s %10s %12s %8s %6s %10s %10s %6s %12s %12s %12s\n",
		"session", "rows", "bytes", "batches", "stmts", "pool_hit", "pool_miss", "evict", "wal_bytes", "spill_bytes", "temp_bytes")
	for _, id := range ids {
		a := sessions[id]
		fmt.Printf("%-8s %10.0f %12.0f %8.0f %6.0f %10.0f %10.0f %6.0f %12.0f %12.0f %12.0f\n",
			id, a.rows, a.bytes, a.batches, a.stmts, a.hits, a.misses, a.evics, a.wal, a.spill, a.temp)
	}
	return nil
}

func printRelation(r *rel.Relation, limit int) {
	fmt.Println(strings.Join(r.Schema.Names(), " | "))
	for i, t := range r.Tuples {
		if i >= limit {
			fmt.Printf("... (%d more rows)\n", r.Cardinality()-limit)
			return
		}
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
}
