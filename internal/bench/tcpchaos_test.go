// TCP chaos sweep: the chaos contract of chaos_test.go, but over a
// real socket with a fault-injecting TCP proxy between client and
// server. The proxy maps the same schedule grammar onto connection-
// level damage — drop severs the pipe, stall delays frames, partial
// truncates a frame mid-write — so the transport's redial + resume +
// replay machinery (not just the in-process injector) is what absorbs
// the faults. Every query must return a result list-equal to the
// clean-TCP reference or fail with a typed error, and no schedule may
// leak cursors, temp tables, sessions, connections, or goroutines.
package bench

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tango/internal/client"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/server"
	"tango/internal/tango"
	"tango/internal/wire"
)

// tcpTypedFailure extends typedFailure with the transport's failure
// vocabulary: lost connections, admission sheds, and server shutdown.
func tcpTypedFailure(err error) bool {
	var cl *client.ErrConnLost
	var ov *server.ErrOverloaded
	return typedFailure(err) || errors.As(err, &cl) || errors.As(err, &ov) ||
		errors.Is(err, server.ErrShutdown)
}

// tcpChaosSchedules is the connection-damage sweep: scripted severs,
// stalls, and truncations on each wire op, plus a persistent-sever
// rule that exhausts the retry budget.
func tcpChaosSchedules(short bool) []string {
	ops := []string{"query", "fetch", "load"}
	kinds := []string{"drop", "partial", "stall"}
	if short {
		ops = []string{"fetch", "load"}
		kinds = []string{"drop", "partial"}
	}
	var out []string
	seed := 100
	for _, op := range ops {
		for _, kind := range kinds {
			seed++
			out = append(out, fmt.Sprintf("seed=%d;stall=1ms;%s@2=%s", seed, op, kind))
		}
	}
	// Persistent sever: every fetch kills the connection; the budget
	// exhausts and the failure must surface typed.
	out = append(out, "seed=199;fetch~drop=1")
	return out
}

// TestTCPChaosSweep runs every workload query over TCP under the
// connection-damage sweep.
func TestTCPChaosSweep(t *testing.T) {
	sys, err := NewSystem(Config{
		PositionRows: 300, EmployeeRows: 120, Histograms: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := server.ListenAndServe(sys.Srv, "127.0.0.1:0", server.TCPConfig{
		ResumeGrace: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	baseSessions := sys.Srv.LiveSessions() // the harness's own session

	// In-process references first, then verify clean TCP matches them
	// exactly — the "matrices pass unchanged over TCP" acceptance leg.
	runs := chaosRuns(sys.MW, func(np NamedPlan) (*rel.Relation, error) {
		out, _, err := sys.RunPlan(np)
		return out, err
	})
	refs := make([]*rel.Relation, len(runs))
	for i, run := range runs {
		out, err := run()
		if err != nil {
			t.Fatalf("in-process run %d: %v", i, err)
		}
		refs[i] = out
	}
	mwOpts := tango.Options{HistogramBuckets: 10, CheckPlans: true, Retry: chaosPolicy()}
	runTCP := func(t *testing.T, addr string) {
		t.Helper()
		tr := client.DialTransport(addr)
		conn, err := tr.Conn()
		if err != nil {
			_ = tr.Close()
			t.Fatalf("open TCP session: %v", err)
		}
		mw := tango.OpenConn(conn, mwOpts)
		defer func() {
			_ = mw.Conn.Close()
			_ = tr.Close()
		}()
		runs := chaosRuns(mw, func(np NamedPlan) (*rel.Relation, error) {
			ex := &tango.Executor{Conn: mw.Conn, Cat: mw.Cat, CheckPlans: true}
			return ex.Run(np.Plan.Clone())
		})
		for i, run := range runs {
			out, err := run()
			switch {
			case err != nil:
				if !tcpTypedFailure(err) {
					t.Fatalf("q%d: untyped failure over TCP: %v", i, err)
				}
			case rel.EqualAsLists(out, refs[i]):
				// Redial + resume + replay absorbed the damage.
			case rel.EqualAsMultisets(out, refs[i]):
				// A plan fallback re-sited the query onto a candidate
				// without a pinned output order.
			default:
				t.Fatalf("q%d: wrong result over TCP (%d vs %d rows)",
					i, out.Cardinality(), refs[i].Cardinality())
			}
		}
	}

	t.Run("clean", func(t *testing.T) {
		defer itertest.Goroutines(t)()
		runTCP(t, ts.Addr())
		waitTCPQuiesced(t, sys, ts, baseSessions)
	})

	for _, src := range tcpChaosSchedules(testing.Short()) {
		src := src
		t.Run(src, func(t *testing.T) {
			defer itertest.Goroutines(t)()
			sched, err := wire.ParseSchedule(src)
			if err != nil {
				t.Fatalf("schedule %q: %v", src, err)
			}
			inj := sched.Injector()
			proxy, err := wire.NewProxy(ts.Addr(), inj)
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			runTCP(t, proxy.Addr())
			waitTCPQuiesced(t, sys, ts, baseSessions)
			// A scripted trap the workload never reaches tests nothing.
			if strings.Contains(src, "@") && inj.Injected() == 0 {
				t.Fatalf("no fault injected under %q", src)
			}
		})
	}
}

// waitTCPQuiesced polls until every TCP-born session is collected —
// severed connections park sessions for the resume grace, so teardown
// is eventually-quiescent, not immediate — then asserts zero leaked
// cursors and temp tables.
func waitTCPQuiesced(t *testing.T, sys *System, ts *server.TCPServer, baseSessions int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ts.LiveRemoteSessions() == 0 && sys.Srv.LiveSessions() == baseSessions {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions not collected: %d remote, %d live (want 0, %d)",
				ts.LiveRemoteSessions(), sys.Srv.LiveSessions(), baseSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := sys.Srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
	if temps := sys.Srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables leaked: %v", temps)
	}
}
