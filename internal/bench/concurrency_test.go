// Multi-session concurrency matrix: the crash and chaos sweeps of
// PR 4/5 re-run with many live sessions sharing one server — and
// therefore one buffer pool, one WAL, and one versioned catalog. The
// contracts are the single-session ones, quantified over sessions:
// every reader observes a full pre-load or post-load state (never a
// torn prefix), failures are typed, and nothing leaks across sessions
// — cursors, temp tables, snapshots, goroutines, or pinned frames.
package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/storage"
	"tango/internal/tango"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/wire"
)

// loadRows builds the payload for the concurrent T^D load target.
func loadRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("pad-%04d", i))}
	}
	return rows
}

// crashedErr reports whether err stems from the scripted store death
// (any operation on a dead store, possibly wrapped by the wire or
// retry layers).
func crashedErr(err error) bool {
	return errors.Is(err, storage.ErrCrashed) || typedFailure(err)
}

// TestCrashConcurrentLoad kills the durable store mid-T^D-load while
// 16 live reader sessions stream the evaluation workload. While the
// load runs, no reader may observe a torn prefix of the load target —
// its count is exactly pre-load (0) or post-load (all rows) — and
// after recovery the reopened store holds a full pre- or post-load
// state with zero cursors, temp tables, snapshots, pinned frames, or
// goroutines leaked.
func TestCrashConcurrentLoad(t *testing.T) {
	defer itertest.Goroutines(t)()
	const (
		readerSessions = 16
		loadN          = 3000
	)
	dir := t.TempDir()
	sys, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MW.Conn.Exec("CREATE TABLE LOADT (ID INTEGER, PAD VARCHAR(40))"); err != nil {
		t.Fatal(err)
	}

	// Fault-free reference for the readers' workload.
	refs := make([]*rel.Relation, len(SeedQueries))
	for i, q := range SeedQueries {
		plan, err := tsql.Parse(q, sys.MW.Cat)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sys.MW.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = out
	}

	// The crash script is armed only when the load starts (below), so
	// reader WAL traffic before that cannot trip it.
	script := storage.NewCrashScript(storage.CrashPoint{
		Target: storage.TargetWAL, Nth: 10, Mode: storage.CrashTorn,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readerSessions)
	for r := 0; r < readerSessions; r++ {
		mw := sys.NewSessionMW()
		wg.Add(1)
		go func(r int, mw *tango.Middleware) {
			defer wg.Done()
			defer func() { _ = mw.Conn.Close() }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Stream one seed query through this session's own
				// middleware: full plan/transfer pipeline.
				q := SeedQueries[(r+i)%len(SeedQueries)]
				plan, err := tsql.Parse(q, mw.Cat)
				if err != nil {
					if !crashedErr(err) {
						errCh <- fmt.Errorf("reader %d: parse: %w", r, err)
					}
					continue
				}
				out, _, err := mw.Run(plan)
				switch {
				case err != nil:
					if !crashedErr(err) {
						errCh <- fmt.Errorf("reader %d: untyped failure: %w", r, err)
						return
					}
				case !rel.EqualAsLists(out, refs[(r+i)%len(SeedQueries)]) &&
					!rel.EqualAsMultisets(out, refs[(r+i)%len(SeedQueries)]):
					errCh <- fmt.Errorf("reader %d: result diverged from fault-free reference", r)
					return
				}
				// Probe the load target: its visible count must be
				// exactly pre-load or post-load, never a torn prefix.
				cnt, _, err := mw.Conn.QueryAll("SELECT COUNT(ID) FROM LOADT")
				if err != nil {
					if !crashedErr(err) {
						errCh <- fmt.Errorf("reader %d: probe: %w", r, err)
						return
					}
					continue
				}
				if got := cnt.Tuples[0][0].AsInt(); got != 0 && got != loadN {
					errCh <- fmt.Errorf("reader %d: torn read of LOADT: count=%d (want 0 or %d)", r, got, loadN)
					return
				}
			}
		}(r, mw)
	}

	// Let the readers get into a steady stream, then arm the crash and
	// fire the load: the Nth WAL write — deep inside the bulk load's
	// page stream — kills the store under all 17 sessions.
	time.Sleep(50 * time.Millisecond)
	sys.DB.FileDisk().SetCrashScript(script)
	_, loadErr := sys.MW.Conn.Load("LOADT", loadRows(loadN))
	if !script.Tripped() {
		t.Fatalf("crash point never tripped (load err: %v)", loadErr)
	}
	if loadErr == nil && !sys.DB.FileDisk().Crashed() {
		t.Fatal("script tripped but store still alive")
	}
	// Give readers a window to observe the dead store, then stop them.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	// The dying system must not hold MVCC pins once every session quit.
	if n := sys.DB.SnapshotsOpen(); n != 0 {
		t.Fatalf("%d snapshot(s) leaked on the crashed system", n)
	}
	if n := sys.Srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked on the crashed system", n)
	}

	// Recover through the full stack and check the committed state.
	rec, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := rec.Close(); err != nil {
			t.Errorf("close recovered system: %v", err)
		}
	}()
	if rec.Recovery == nil {
		t.Fatal("recovered system has no recovery stats")
	}
	if _, err := rec.DB.Table("LOADT"); err == nil {
		got := int64(len(tableRows(t, rec, "LOADT")))
		if got != 0 && got != loadN {
			t.Fatalf("recovered LOADT torn: %d rows (want 0 or %d)", got, loadN)
		}
	}
	// Recovered queries reproduce the fault-free reference.
	plan, err := tsql.Parse(SeedQueries[0], rec.MW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := rec.MW.Run(plan)
	if err != nil {
		t.Fatalf("query over recovered store: %v", err)
	}
	if !rel.EqualAsLists(out, refs[0]) {
		t.Fatalf("recovered store answers differently: %d vs %d rows",
			out.Cardinality(), refs[0].Cardinality())
	}
	if temps := rec.Srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables survived startup GC: %v", temps)
	}
	if pinned := rec.DB.Pool().Pinned(); pinned != 0 {
		t.Fatalf("%d buffer-pool frame(s) still pinned", pinned)
	}
	if n := rec.Srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
	if n := rec.DB.SnapshotsOpen(); n != 0 {
		t.Fatalf("%d snapshot(s) leaked", n)
	}
}

// TestChaosConcurrentSessions runs the wire-fault sweep with 8
// concurrent sessions sharing one server. Per session the
// single-session contract holds — fault-free-equal results or typed
// clean errors — and no session's failure may leak cursors or temp
// tables into another's view of the server.
func TestChaosConcurrentSessions(t *testing.T) {
	const sessions = 8
	sys, err := NewSystem(Config{
		PositionRows: 300, EmployeeRows: 120, Histograms: 10,
		Parallelism: 1, Retry: chaosPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free references from the primary session.
	refs := make([]*rel.Relation, len(SeedQueries))
	for i, q := range SeedQueries {
		plan, err := tsql.Parse(q, sys.MW.Cat)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := sys.MW.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = out
	}

	schedules := []string{
		"seed=31;stall=1ms;fetch@2=drop",
		"seed=32;stall=1ms;query@1=partial",
		"seed=33;stall=1ms;load@1=drop",
		"seed=34;stall=1ms;fetch~partial=0.05",
	}
	if testing.Short() {
		schedules = schedules[:2]
	}
	for _, src := range schedules {
		src := src
		t.Run(src, func(t *testing.T) {
			defer itertest.Goroutines(t)()
			sched, err := wire.ParseSchedule(src)
			if err != nil {
				t.Fatal(err)
			}
			sys.Srv.SetFaults(sched.Injector())
			defer sys.Srv.SetFaults(nil)

			var wg sync.WaitGroup
			errCh := make(chan error, sessions*len(SeedQueries))
			for sess := 0; sess < sessions; sess++ {
				wg.Add(1)
				go func(sess int) {
					defer wg.Done()
					mw := sys.NewSessionMW()
					defer func() { _ = mw.Conn.Close() }()
					for i, q := range SeedQueries {
						plan, err := tsql.Parse(q, mw.Cat)
						if err != nil {
							errCh <- fmt.Errorf("session %d q%d: parse: %w", sess, i, err)
							return
						}
						out, _, err := mw.Run(plan)
						switch {
						case err != nil:
							if !typedFailure(err) {
								errCh <- fmt.Errorf("session %d q%d: untyped failure under %q: %w", sess, i, src, err)
								return
							}
						case rel.EqualAsLists(out, refs[i]):
							// Retries absorbed the faults.
						case rel.EqualAsMultisets(out, refs[i]):
							// A deterministic plan fallback re-sited the
							// query; ordering may differ for statements
							// without a total order.
						default:
							errCh <- fmt.Errorf("session %d q%d: wrong result under %q (%d vs %d rows)",
								sess, i, src, out.Cardinality(), refs[i].Cardinality())
							return
						}
					}
				}(sess)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			// Cross-session leak checks: with every extra session closed,
			// the server is back to the primary session's baseline.
			if n := sys.Srv.OpenCursors(); n != 0 {
				t.Fatalf("%d cursor(s) leaked across sessions under %q", n, src)
			}
			if temps := sys.Srv.TempTables(); len(temps) != 0 {
				t.Fatalf("temp tables leaked across sessions under %q: %v", src, temps)
			}
			if n := sys.DB.SnapshotsOpen(); n != 0 {
				t.Fatalf("%d snapshot(s) leaked under %q", n, src)
			}
			if n := sys.Srv.LiveSessions(); n != 1 {
				t.Fatalf("%d session(s) live after sweep (want 1: the primary)", n)
			}
		})
	}
	if err := sys.MW.Conn.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Srv.LiveSessions(); n != 0 {
		t.Fatalf("%d session(s) still live", n)
	}
}

// groupCommitDB opens a bare durable engine for the group-commit
// measurements.
func groupCommitDB(tb testing.TB) *engine.DB {
	tb.Helper()
	db, _, err := engine.OpenAt(tb.TempDir(), engine.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE GCT (K INTEGER, PAD VARCHAR(40))"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// gcInsert writes one row through the full commit path (WAL stage,
// publish, group-commit barrier).
func gcInsert(db *engine.DB, k int64) error {
	return db.Insert("GCT", types.Tuple{types.Int(k), types.Str("pad-payload-for-wal")})
}

// TestGroupCommitAmortizes checks the group-commit invariant directly:
// N sessions committing concurrently fsync strictly fewer than N
// times per N commits — followers ride the leader's barrier — while a
// lone committer still gets exactly one durability point per commit.
func TestGroupCommitAmortizes(t *testing.T) {
	db := groupCommitDB(t)
	defer db.Close()

	// Solo baseline: every commit awaits its own barrier.
	commits0, _ := db.CommitStats()
	for i := 0; i < 10; i++ {
		if err := gcInsert(db, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	commits1, _ := db.CommitStats()
	if got := commits1 - commits0; got != 10 {
		t.Fatalf("solo commits = %d, want 10", got)
	}

	// Contended phase: 16 writers, 40 commits each. Followers can only
	// join a batch while its leader is inside its fsync; on one P a
	// fast fsync never yields, so every commit would lead its own batch.
	// Two Ps make the writers really overlap.
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const (
		writers = 16
		perW    = 40
	)
	entries0, batches0, _ := db.FileDisk().GroupCommitStats()
	commits0, _ = db.CommitStats()
	var (
		wg  sync.WaitGroup
		key atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := gcInsert(db, 1000+key.Add(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	commits1, wait := db.CommitStats()
	entries1, batches1, _ := db.FileDisk().GroupCommitStats()
	commits := commits1 - commits0
	entries, batches := entries1-entries0, batches1-batches0
	if commits != writers*perW {
		t.Fatalf("contended commits = %d, want %d", commits, writers*perW)
	}
	// Batches, not fsyncs: a checkpoint a batch triggers syncs the WAL
	// once more, which says nothing about how commits were grouped.
	if batches >= entries {
		t.Fatalf("group commit did not amortize: %d batches for %d barrier entries (want < 1 batch/entry)", batches, entries)
	}
	t.Logf("contended: %d commits, %d barrier entries in %d batches (%.3f batches/entry), total wait %v",
		commits, entries, batches, float64(batches)/float64(entries), wait)
	// Everything is durable: reopen and count.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGroupCommit measures commit latency and fsyncs/commit at
// 1, 8, and 64 concurrent sessions hammering one durable store. The
// archived metric of record is fsyncs/commit: it must fall below 1
// under contention (bench-json archives it into BENCH_9.json).
func BenchmarkGroupCommit(b *testing.B) {
	for _, sessions := range []int{1, 8, 64} {
		sessions := sessions
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			db := groupCommitDB(b)
			defer db.Close()
			commits0, wait0 := db.CommitStats()
			_, _, fsyncs0 := db.FileDisk().GroupCommitStats()
			var (
				wg  sync.WaitGroup
				ctr atomic.Int64
			)
			b.ResetTimer()
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := ctr.Add(1)
						if i > int64(b.N) {
							return
						}
						if err := gcInsert(db, i); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			commits1, wait1 := db.CommitStats()
			_, _, fsyncs1 := db.FileDisk().GroupCommitStats()
			commits := commits1 - commits0
			if commits > 0 {
				b.ReportMetric(float64(fsyncs1-fsyncs0)/float64(commits), "fsyncs/commit")
				b.ReportMetric(float64((wait1-wait0).Nanoseconds())/float64(commits), "commit-wait-ns")
			}
		})
	}
}
