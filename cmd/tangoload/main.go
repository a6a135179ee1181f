// Command tangoload is the thousand-session load generator for the
// TCP serving path: it replays the evaluation workload (a plain-SQL
// majority plus a VALIDTIME minority driven through full middleware
// stacks) from N simulated sessions multiplexed over a small shared
// connection pool, against either an embedded server it boots itself
// or an external one (-addr). A chaos schedule (-chaos) interposes the
// fault-injecting TCP proxy, so overload and connection damage compose.
//
// The run fails (exit 1) if any statement dies with an error outside
// the typed vocabulary (ErrOverloaded / ErrConnLost / ErrShutdown), if
// nothing completes, or — in embedded mode — if the server is left
// with leaked cursors, temp tables, or sessions after drain.
//
//	tangoload -sessions 1024 -ops 4 -max-inflight 64
//	tangoload -sessions 256 -chaos "seed=7;stall=200us;fetch@3=drop"
//	tangoload -addr 127.0.0.1:7777 -sessions 512
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tango/internal/bench"
	"tango/internal/client"
	"tango/internal/fault"
	"tango/internal/server"
	"tango/internal/wire"
)

func main() {
	addr := flag.String("addr", "", "attack an existing server (empty = boot an embedded one)")
	sessions := flag.Int("sessions", 1024, "simulated sessions")
	ops := flag.Int("ops", 4, "statements per session")
	transports := flag.Int("transports", 16, "shared TCP connections the sessions multiplex over")
	temporalEvery := flag.Int("temporal-every", 16, "every Nth session runs VALIDTIME queries through a middleware stack (<0 disables)")
	posRows := flag.Int("position", 2000, "embedded server: POSITION rows")
	empRows := flag.Int("employee", 800, "embedded server: EMPLOYEE rows")
	maxInFlight := flag.Int("max-inflight", 64, "admission: concurrent admitted statements (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 256, "admission: wait-queue bound")
	queueWait := flag.Duration("queue-wait", 250*time.Millisecond, "admission: max queue wait before shedding")
	retryAfter := flag.Duration("retry-after", 2*time.Millisecond, "admission: backoff suggestion carried in ErrOverloaded")
	budget := flag.Int64("session-budget", 0, "admission: per-session resident byte budget (0 = unlimited)")
	retries := flag.Int("retries", client.DefaultRetryPolicy().MaxAttempts, "client retry budget per statement")
	opTimeout := flag.Duration("op-timeout", client.DefaultRetryPolicy().OpTimeout, "client per-attempt deadline")
	deadline := flag.Duration("deadline", client.DefaultRetryPolicy().Deadline, "client total per-statement deadline across attempts and backoffs")
	chaos := flag.String("chaos", "", `interpose the fault-injecting TCP proxy with this schedule, e.g. "seed=7;stall=2ms;fetch@3=drop"`)
	flag.Parse()

	sched, err := fault.ParseSchedule(*chaos)
	if err != nil {
		fatal("chaos:", err)
	}

	target := *addr
	var sys *bench.System
	var ts *server.TCPServer
	if target == "" {
		fmt.Printf("booting embedded server (%d POSITION rows, %d EMPLOYEE rows)...\n", *posRows, *empRows)
		sys, err = bench.NewSystem(bench.Config{
			PositionRows: *posRows, EmployeeRows: *empRows, Histograms: 10,
		})
		if err != nil {
			fatal("boot:", err)
		}
		defer sys.Close()
		ts, err = server.ListenAndServe(sys.Srv, "127.0.0.1:0", server.TCPConfig{
			Admission: server.AdmissionConfig{
				MaxInFlight:   *maxInFlight,
				MaxQueue:      *maxQueue,
				QueueWait:     *queueWait,
				RetryAfter:    *retryAfter,
				SessionBudget: *budget,
			},
		})
		if err != nil {
			fatal("listen:", err)
		}
		defer ts.Close()
		target = ts.Addr()
		fmt.Printf("serving on %s (max-inflight %d, queue %d/%v)\n",
			target, *maxInFlight, *maxQueue, *queueWait)
	}
	if *chaos != "" {
		proxy, err := wire.NewProxy(target, sched.Injector())
		if err != nil {
			fatal("chaos:", err)
		}
		defer proxy.Close()
		target = proxy.Addr()
		fmt.Printf("chaos proxy on %s injecting %q\n", target, sched.String())
	}

	retry := client.DefaultRetryPolicy()
	retry.MaxAttempts = *retries
	retry.OpTimeout = *opTimeout
	retry.Deadline = *deadline
	fmt.Printf("offering %d sessions x %d ops over %d transports...\n",
		*sessions, *ops, *transports)
	rep, err := bench.RunLoad(bench.LoadConfig{
		Addr:          target,
		Sessions:      *sessions,
		Ops:           *ops,
		Transports:    *transports,
		TemporalEvery: *temporalEvery,
		Retry:         retry,
	})
	if err != nil {
		fatal("load:", err)
	}

	offered := int64(rep.Sessions) * int64(rep.Ops)
	fmt.Printf("\n%d/%d statements completed in %v (%.0f stmt/s)\n",
		rep.Completed, offered, rep.Elapsed.Round(time.Millisecond), rep.Throughput())
	fmt.Printf("final failures: %d overloaded, %d conn-lost, %d shutdown, %d deadline, %d untyped\n",
		rep.Overloaded, rep.ConnLost, rep.Shutdown, rep.Deadline, len(rep.Untyped))
	fmt.Printf("latency: p50 %v  p99 %v  p999 %v  max %v\n",
		rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond),
		rep.P999.Round(time.Microsecond), rep.Max.Round(time.Microsecond))

	failed := false
	for _, msg := range rep.Untyped {
		fmt.Fprintln(os.Stderr, "untyped failure:", msg)
		failed = true
	}
	if rep.Completed == 0 {
		fmt.Fprintln(os.Stderr, "no statement completed")
		failed = true
	}

	if ts != nil {
		srv := ts.Server()
		fmt.Printf("server: %d conns, %d sessions accepted, %d admitted, %d queued, %d shed, %d drained, queue depth %d, in flight %d\n",
			srv.Connections(), srv.Accepted(), srv.Admitted(), srv.Queued(),
			srv.Shed(), srv.Drained(), srv.QueueDepth(), srv.InFlight())
		// Graceful drain, then the leak audit: everything the load run
		// created server-side must be gone.
		if err := ts.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
			failed = true
		}
		if n := srv.OpenCursors(); n != 0 {
			fmt.Fprintf(os.Stderr, "leak: %d open cursor(s)\n", n)
			failed = true
		}
		if temps := srv.TempTables(); len(temps) != 0 {
			fmt.Fprintf(os.Stderr, "leak: temp tables %v\n", temps)
			failed = true
		}
		// The embedded System's own middleware session is the baseline.
		if n := srv.LiveSessions(); n > 1 {
			fmt.Fprintf(os.Stderr, "leak: %d session(s) still live\n", n-1)
			failed = true
		}
		fmt.Println("drained clean: no cursors, temp tables, or sessions leaked")
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(prefix string, err error) {
	fmt.Fprintln(os.Stderr, prefix, err)
	os.Exit(1)
}
