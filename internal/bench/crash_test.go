// Crash matrix: the whole T^D-loading workload (UIS bulk loads +
// every SeedQueries statement) is run on a durable store and killed
// at every scripted write point — WAL records omitted or torn, data
// pages torn or half-written mid-checkpoint. After each kill the
// directory is reopened through the full stack and the contract is
// checked: recovery restores every bulk-loaded table to exactly its
// pre-load or post-load state (never a torn prefix), the startup
// session GC leaves zero transfer temp tables, queries over the
// recovered catalog/heaps/indexes reproduce the fault-free reference,
// and nothing leaks — goroutines, cursors, or pinned buffer frames.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/storage"
	"tango/internal/tsql"
	"tango/internal/types"
	"tango/internal/wire"
)

// crashConfig is the durable system used across the matrix: small
// tables, an aggressive auto-checkpoint threshold (so the workload
// crosses several checkpoints and the page-write crash points exist),
// and planck plan checking on (harness default). The middleware is
// sequential, so write points number deterministically.
func crashConfig(dir string, script *storage.CrashScript) Config {
	return Config{
		PositionRows: 90, EmployeeRows: 45, Histograms: 4,
		DataDir:         dir,
		Crash:           script,
		CheckpointBytes: 2 * storage.PageSize,
		Retry:           chaosPolicy(),
	}
}

// crashWorkload drives the statements whose write points the matrix
// sweeps: NewSystem already ran the UIS bulk loads (the T^D transfer
// path); this adds every seed query, whose mixed plans ship
// intermediates down through temp-table loads.
func crashWorkload(sys *System) error {
	// A transfer temp table is alive for most of the workload (created
	// first, dropped last, written to in between): any crash point in
	// that window leaves a committed orphan that only the next boot's
	// session GC can collect.
	if _, err := sys.MW.Conn.Exec("CREATE TABLE TMP_TANGO_CRASH (ID INTEGER, PAD VARCHAR(40))"); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if _, err := sys.MW.Conn.Exec(fmt.Sprintf("INSERT INTO TMP_TANGO_CRASH VALUES (%d, 'pad-%d')", i, i)); err != nil {
			return err
		}
	}
	for _, q := range SeedQueries {
		plan, err := tsql.Parse(q, sys.MW.Cat)
		if err != nil {
			return err
		}
		if _, _, err := sys.MW.Run(plan); err != nil {
			return err
		}
	}
	_, err := sys.MW.Conn.Exec("DROP TABLE IF EXISTS TMP_TANGO_CRASH")
	return err
}

// tableRows reads a table's tuples directly off the engine (no wire,
// no faults), rendered and sorted for list comparison.
func tableRows(t *testing.T, sys *System, name string) []string {
	t.Helper()
	tab, err := sys.DB.Table(name)
	if err != nil {
		t.Fatalf("table %s: %v", name, err)
	}
	var rows []string
	err = tab.Heap.Scan(nil, func(_ storage.RecordID, tuple types.Tuple) bool {
		parts := make([]string, len(tuple))
		for i, v := range tuple {
			parts[i] = v.AsString()
		}
		rows = append(rows, strings.Join(parts, "|"))
		return true
	})
	if err != nil {
		t.Fatalf("scan %s: %v", name, err)
	}
	sort.Strings(rows)
	return rows
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCrashMatrix sweeps every WAL and data-page write point of the
// workload with every applicable crash mode.
func TestCrashMatrix(t *testing.T) {
	// Observer pass: same config, no crash points — counts the write
	// points and records the reference state.
	obs := storage.NewCrashScript()
	ref, err := NewSystem(crashConfig(t.TempDir(), obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := crashWorkload(ref); err != nil {
		t.Fatal(err)
	}
	walPoints := obs.Observed(storage.TargetWAL)
	pagePoints := obs.Observed(storage.TargetPage)
	if walPoints < 10 {
		t.Fatalf("workload has only %d WAL write points; matrix would be vacuous", walPoints)
	}
	if pagePoints < 2 {
		t.Fatalf("workload crossed no checkpoint (%d page points); lower CheckpointBytes", pagePoints)
	}
	refPos := tableRows(t, ref, "POSITION")
	refEmp := tableRows(t, ref, "EMPLOYEE")
	refPlan, err := tsql.Parse(SeedQueries[0], ref.MW.Cat)
	if err != nil {
		t.Fatal(err)
	}
	refOut, _, err := ref.MW.Run(refPlan)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	type cell struct {
		target storage.CrashTarget
		modes  []storage.CrashMode
		points int64
	}
	cells := []cell{
		{storage.TargetWAL, []storage.CrashMode{storage.CrashOmit, storage.CrashTorn}, walPoints},
		{storage.TargetPage, []storage.CrashMode{storage.CrashTorn, storage.CrashPartial}, pagePoints},
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}

	var totalReplayed, totalTorn, totalChecksum, totalGC int64
	for _, c := range cells {
		for _, mode := range c.modes {
			for n := int64(1); n <= c.points; n += stride {
				name := fmt.Sprintf("%v@%d=%v", c.target, n, mode)
				t.Run(name, func(t *testing.T) {
					defer itertest.Goroutines(t)()
					dir := t.TempDir()
					script := storage.NewCrashScript(storage.CrashPoint{Target: c.target, Nth: n, Mode: mode})
					sys, err := NewSystem(crashConfig(dir, script))
					if err == nil {
						err = crashWorkload(sys)
					}
					if !script.Tripped() {
						t.Fatalf("crash point %s never reached (workload err: %v)", name, err)
					}
					if err == nil {
						// The point fired after the last acknowledged
						// statement of the workload; the store is dead
						// all the same.
						if !sys.DB.FileDisk().Crashed() {
							t.Fatal("script tripped but store still alive")
						}
					}

					// Recover through the full stack: storage redo,
					// catalog bootstrap, startup session GC, re-ANALYZE.
					rec, err := NewSystem(crashConfig(dir, nil))
					if err != nil {
						t.Fatalf("reopen after %s: %v", name, err)
					}
					defer func() {
						if err := rec.Close(); err != nil {
							t.Errorf("close recovered system: %v", err)
						}
					}()
					st := rec.Recovery
					if st == nil {
						t.Fatal("recovered system has no recovery stats")
					}
					totalReplayed += st.ReplayedRecords
					totalTorn += st.TornTails
					totalChecksum += st.ChecksumFailures
					totalGC += int64(rec.GCCollected)

					// §3.2 across restarts: the startup GC leaves no
					// transfer temp tables behind.
					if temps := rec.Srv.TempTables(); len(temps) != 0 {
						t.Fatalf("temp tables survived startup GC: %v", temps)
					}

					// Atomic T^D loads: each bulk-loaded table is exactly
					// pre-load (absent or empty) or post-load (list-equal
					// to the reference) — never a torn prefix.
					full := func(name string, want []string) bool {
						if _, err := rec.DB.Table(name); err != nil {
							return false // never created: pre-load
						}
						got := tableRows(t, rec, name)
						if len(got) == 0 {
							return false // created, load rolled back
						}
						if !sameRows(got, want) {
							t.Fatalf("torn table %s: recovered %d rows, reference %d", name, len(got), len(want))
						}
						return true
					}
					posFull := full("POSITION", refPos)
					empFull := full("EMPLOYEE", refEmp)
					if empFull && !posFull {
						t.Fatal("EMPLOYEE post-load but POSITION pre-load: loads replayed out of order")
					}

					// End-to-end integrity: when the data survived, the
					// recovered catalog/heaps/indexes answer the first
					// workload query identically (planck checking on).
					if posFull {
						plan, err := tsql.Parse(SeedQueries[0], rec.MW.Cat)
						if err != nil {
							t.Fatal(err)
						}
						out, _, err := rec.MW.Run(plan)
						if err != nil {
							t.Fatalf("query over recovered store: %v", err)
						}
						if !rel.EqualAsLists(out, refOut) {
							t.Fatalf("recovered store answers differently: %d vs %d rows",
								out.Cardinality(), refOut.Cardinality())
						}
					}
					if pinned := rec.DB.Pool().Pinned(); pinned != 0 {
						t.Fatalf("%d buffer-pool frame(s) still pinned", pinned)
					}
					if n := rec.Srv.OpenCursors(); n != 0 {
						t.Fatalf("%d cursor(s) leaked", n)
					}
				})
			}
		}
	}

	// Matrix-wide expectations: recovery actually replayed records, the
	// torn-WAL cells produced (and truncated) torn tails, and at least
	// one mid-checkpoint kill left a committed temp table for the
	// startup GC. Checksum detection of torn data pages is asserted
	// sharply in TestCrashChecksumDetection; here it may be zero when
	// every torn frame fell beyond the last durable checkpoint's reach.
	if totalReplayed == 0 {
		t.Error("no crash cell replayed any WAL record")
	}
	if totalTorn == 0 {
		t.Error("no crash cell observed a torn WAL tail")
	}
	if totalGC == 0 {
		t.Error("no crash cell exercised the startup temp-table GC")
	}
	t.Logf("matrix totals: replayed=%d torn_tails=%d checksum_failures=%d gc_collected=%d",
		totalReplayed, totalTorn, totalChecksum, totalGC)
}

// TestCrashChecksumDetection kills the store halfway through
// rewriting an already-checkpointed page (the classic torn write) and
// asserts recovery detects it by checksum and repairs it from the
// WAL's page image.
func TestCrashChecksumDetection(t *testing.T) {
	dir := t.TempDir()
	cfg := crashConfig(dir, nil)
	// Manual checkpoints only: the test controls exactly which page
	// images are on disk when the torn write hits.
	cfg.CheckpointBytes = -1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint a nearly empty page, then grow it across the
	// half-frame boundary (a page's block starts at its front, so ~120
	// rows of this shape reach into its back half). The next checkpoint
	// rewrites the page in place; tearing that write leaves a new front
	// half, a stale back half, and a checksum that matches neither.
	if _, err := sys.MW.Conn.Exec("CREATE TABLE CRASHT (ID INTEGER, PAD VARCHAR(60))"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 40)
	if _, err := sys.MW.Conn.Exec(fmt.Sprintf("INSERT INTO CRASHT VALUES (0, '%s')", pad)); err != nil {
		t.Fatal(err)
	}
	if err := sys.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 120; i++ {
		if _, err := sys.MW.Conn.Exec(fmt.Sprintf("INSERT INTO CRASHT VALUES (%d, '%s')", i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	want := tableRows(t, sys, "CRASHT")
	sys.DB.FileDisk().SetCrashScript(storage.NewCrashScript(
		storage.CrashPoint{Target: storage.TargetPage, Nth: 1, Mode: storage.CrashTorn}))
	if err := sys.DB.Checkpoint(); err == nil {
		t.Fatal("checkpoint survived its crash point")
	}

	rec, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if rec.Recovery.ChecksumFailures == 0 {
		t.Error("torn page rewrite not detected by checksum")
	}
	if rec.Recovery.RepairedPages == 0 {
		t.Error("torn page not repaired from WAL images")
	}
	if got := tableRows(t, rec, "CRASHT"); !sameRows(got, want) {
		t.Errorf("recovered CRASHT diverges: %d rows vs %d", len(got), len(want))
	}
}

// TestSplitSchedule pins the routing of the shared fault grammar:
// wire ops stay wire, storage ops become crash points, and the
// combinations that make no sense are rejected.
func TestSplitSchedule(t *testing.T) {
	sched, err := wire.ParseSchedule("seed=11;stall=2ms;wal@7=torn;page@3=partial;wal@1=drop;fetch@2=drop;exec~drop=0.5")
	if err != nil {
		t.Fatal(err)
	}
	ws, points, err := SplitSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Seed != 11 || ws.Stall != 2*time.Millisecond {
		t.Errorf("wire knobs not preserved: %+v", ws)
	}
	if len(ws.Traps) != 1 || ws.Traps[0].Op != wire.OpFetch || len(ws.Probs) != 1 {
		t.Errorf("wire rules misrouted: traps=%v probs=%v", ws.Traps, ws.Probs)
	}
	want := []storage.CrashPoint{
		{Target: storage.TargetWAL, Nth: 7, Mode: storage.CrashTorn},
		{Target: storage.TargetPage, Nth: 3, Mode: storage.CrashPartial},
		{Target: storage.TargetWAL, Nth: 1, Mode: storage.CrashOmit},
	}
	if len(points) != len(want) {
		t.Fatalf("crash points: %v", points)
	}
	for i, p := range points {
		if p != want[i] {
			t.Errorf("point %d: %+v, want %+v", i, p, want[i])
		}
	}
	for _, bad := range []string{"wal~drop=1", "page@1=stall", "fetch@1=torn", "query~torn=0.5"} {
		s, err := wire.ParseSchedule(bad)
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if _, _, err := SplitSchedule(s); err == nil {
			t.Errorf("SplitSchedule accepted %q", bad)
		}
	}
}

// TestCrashStartupGC covers the restart half of the session contract
// directly: a session that died with the process leaves its temp
// table behind, and the next boot's GC collects it before queries
// run.
func TestCrashStartupGC(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.MW.Conn.CreateTable("TMP_TANGO_ORPHAN",
		types.Schema{Cols: []types.Column{{Name: "X", Kind: types.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: kill -9.
	rec, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.GCCollected != 1 {
		t.Errorf("startup GC collected %d tables, want 1", rec.GCCollected)
	}
	if temps := rec.Srv.TempTables(); len(temps) != 0 {
		t.Errorf("temp tables survived startup GC: %v", temps)
	}
	if !rec.Reopened {
		t.Error("system did not report the reopen")
	}
}
