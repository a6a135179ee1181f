// Crash matrix: the whole T^D-loading workload (UIS bulk loads +
// every SeedQueries statement) is run on a durable store and killed
// at every scripted write point — WAL records omitted or torn, data
// pages torn or half-written mid-checkpoint. After each kill the
// directory is reopened through the full stack and the contract is
// checked: recovery restores every bulk-loaded table to exactly its
// pre-load or post-load state (never a torn prefix), neither the
// reopened catalog nor meta.tango names a transfer temp table (they
// live on unlogged files), queries over the recovered
// catalog/heaps/indexes reproduce the fault-free reference, and
// nothing leaks — goroutines, cursors, or pinned buffer frames.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tango/internal/engine"
	"tango/internal/fault"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/storage"
	"tango/internal/tsql"
	"tango/internal/types"
)

// crashConfig is the durable system used across the matrix: small
// tables, an aggressive auto-checkpoint threshold (so the workload
// crosses several checkpoints and the page-write crash points exist),
// and planck plan checking on (harness default). The middleware is
// sequential, so write points number deterministically.
func crashConfig(dir string, script *fault.Injector) Config {
	return Config{
		PositionRows: 90, EmployeeRows: 45, Histograms: 4,
		DataDir:         dir,
		Faults:          script,
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
	// first, dropped last, written to in between), beside a permanent
	// table created and written while it lives: any crash point in that
	// window dies with a live temp table, which the reopened store must
	// not name.
	for _, sql := range []string{
		"CREATE TABLE TMP_TANGO_CRASH (ID INTEGER, PAD VARCHAR(40))",
		"CREATE TABLE CRASHP (ID INTEGER, PAD VARCHAR(40))",
	} {
		if _, err := sys.MW.Conn.Exec(sql); err != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		for _, table := range []string{"TMP_TANGO_CRASH", "CRASHP"} {
			if _, err := sys.MW.Conn.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, 'pad-%d')", table, i, i)); err != nil {
				return err
			}
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

// noTempNamed fails the test when the reopened system, its catalog
// document or the store's meta.tango names a transfer temp table: they
// live on unlogged files, so no restart may find one.
func noTempNamed(t *testing.T, dir string, rec *System) {
	t.Helper()
	if temps := rec.Srv.TempTables(); len(temps) != 0 {
		t.Fatalf("temp tables survived the restart: %v", temps)
	}
	cat, _ := rec.DB.FileDisk().Meta("catalog")
	meta, err := os.ReadFile(filepath.Join(dir, "meta.tango"))
	if err != nil {
		t.Fatal(err)
	}
	for what, doc := range map[string]string{"catalog": cat, "meta.tango": string(meta)} {
		if strings.Contains(doc, engine.TempPrefix) {
			t.Fatalf("reopened %s names a temp table: %s", what, doc)
		}
	}
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
	obs := fault.Schedule{}.Injector()
	ref, err := NewSystem(crashConfig(t.TempDir(), obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := crashWorkload(ref); err != nil {
		t.Fatal(err)
	}
	walPoints := obs.Calls(fault.OpWAL)
	pagePoints := obs.Calls(fault.OpPage)
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
		target fault.Op
		modes  []fault.Kind
		points int64
	}
	cells := []cell{
		{fault.OpWAL, []fault.Kind{fault.KindDrop, fault.KindTorn}, walPoints},
		{fault.OpPage, []fault.Kind{fault.KindTorn, fault.KindPartial}, pagePoints},
	}
	// A cell keeps its established name: an omitted WAL write is "omit".
	modeName := func(k fault.Kind) string {
		if k == fault.KindDrop {
			return "omit"
		}
		return k.String()
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}

	var totalReplayed, totalTorn, totalChecksum, liveTemps int64
	for _, c := range cells {
		for _, mode := range c.modes {
			for n := int64(1); n <= c.points; n += stride {
				name := fmt.Sprintf("%v@%d=%v", c.target, n, modeName(mode))
				t.Run(name, func(t *testing.T) {
					defer itertest.Goroutines(t)()
					dir := t.TempDir()
					script := fault.Schedule{Traps: []fault.Trap{{Op: c.target, Nth: n, Kind: mode}}}.Injector()
					sys, err := NewSystem(crashConfig(dir, script))
					if err == nil {
						err = crashWorkload(sys)
					}
					if script.Calls(c.target) < n {
						t.Fatalf("crash point %s never reached (workload err: %v)", name, err)
					}
					if sys != nil && len(sys.Srv.TempTables()) > 0 {
						liveTemps++
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
					// catalog bootstrap, re-ANALYZE.
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

					// §3.2 across restarts: no transfer temp table is
					// left behind, in the catalog or in meta.tango.
					noTempNamed(t, dir, rec)

					// Atomic bulk loads: each loaded table is exactly
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
	// torn-WAL cells produced (and truncated) torn tails, and some kills
	// struck while a temp table lived, so the per-cell temp-table check
	// was not vacuous. Checksum detection of torn data pages is asserted
	// sharply in TestCrashChecksumDetection; here it may be zero when
	// every torn frame fell beyond the last durable checkpoint's reach.
	if totalReplayed == 0 {
		t.Error("no crash cell replayed any WAL record")
	}
	if totalTorn == 0 {
		t.Error("no crash cell observed a torn WAL tail")
	}
	if liveTemps == 0 {
		t.Error("no crash cell died with a temp table live")
	}
	t.Logf("matrix totals: replayed=%d torn_tails=%d checksum_failures=%d live_temps=%d",
		totalReplayed, totalTorn, totalChecksum, liveTemps)
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
	sys.DB.FileDisk().SetFaults(fault.Schedule{Traps: []fault.Trap{
		{Op: fault.OpPage, Nth: 1, Kind: fault.KindTorn}}}.Injector())
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

// TestCrashChaosSchedule drives the one path a `-chaos` flag takes:
// one schedule string, parsed once, whose injector NewSystem arms on
// the durable store and the server. Its wire trap spends the max=1
// cap, so the fetch~drop=1 rule beside it stays silent and the
// dropped fetch is retried to success; its wal trap, which the cap
// does not silence, kills the store at exactly that WAL write; and the
// reopened store holds the committed state before the dying write.
func TestCrashChaosSchedule(t *testing.T) {
	const wireRules = "seed=5;max=1;fetch@1=drop;fetch~drop=1"
	workload := func(sys *System, walBeforeInsert *int64, inj *fault.Injector) error {
		plan, err := tsql.Parse(SeedQueries[0], sys.MW.Cat)
		if err != nil {
			return err
		}
		if _, _, err := sys.MW.Run(plan); err != nil {
			return fmt.Errorf("query under a retried wire fault: %w", err)
		}
		if _, err := sys.MW.Conn.Exec("CREATE TABLE CHAOSP (ID INTEGER)"); err != nil {
			return err
		}
		*walBeforeInsert = inj.Calls(fault.OpWAL)
		_, err = sys.MW.Conn.Exec("INSERT INTO CHAOSP VALUES (1)")
		return err
	}

	// Observer: the same wire rules, no wal trap — counts the WAL
	// writes up to the INSERT and records the reference state.
	sched, err := fault.ParseSchedule(wireRules)
	if err != nil {
		t.Fatal(err)
	}
	obs := sched.Injector()
	ref, err := NewSystem(crashConfig(t.TempDir(), obs))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := workload(ref, &n, obs); err != nil {
		t.Fatal(err)
	}
	refPos := tableRows(t, ref, "POSITION")
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	n++ // the INSERT's first WAL write

	dir := t.TempDir()
	sched, err = fault.ParseSchedule(fmt.Sprintf("%s;wal@%d=drop", wireRules, n))
	if err != nil {
		t.Fatal(err)
	}
	inj := sched.Injector()
	sys, err := NewSystem(crashConfig(dir, inj))
	if err != nil {
		t.Fatal(err)
	}
	var before int64
	werr := workload(sys, &before, inj)
	if before != n-1 {
		t.Fatalf("%d WAL writes before the INSERT, observer counted %d", before, n-1)
	}
	if inj.Injected() != 1 || inj.Calls(fault.OpFetch) < 2 {
		t.Fatalf("wire fault not retried: %d injected over %d fetches", inj.Injected(), inj.Calls(fault.OpFetch))
	}
	if werr == nil || !crashedErr(werr) {
		t.Fatalf("INSERT on the trapped WAL write: %v, want the store's death", werr)
	}
	if !sys.DB.FileDisk().Crashed() || inj.Calls(fault.OpWAL) != n {
		t.Fatalf("store died at WAL write %d of trap %d (crashed=%v)", inj.Calls(fault.OpWAL), n, sys.DB.FileDisk().Crashed())
	}

	rec, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	if got := tableRows(t, rec, "POSITION"); !sameRows(got, refPos) {
		t.Fatalf("recovered POSITION diverges: %d rows vs %d", len(got), len(refPos))
	}
	if got := tableRows(t, rec, "CHAOSP"); len(got) != 0 {
		t.Fatalf("recovered CHAOSP holds the dying INSERT: %v", got)
	}
	noTempNamed(t, dir, rec)
}

// TestNewSystemRefusesPhysicalTrapsInMemory: a wal or page trap
// cannot fire on the in-memory store, so NewSystem without a DataDir
// refuses the schedule instead of running a crash drill that never
// crashes.
func TestNewSystemRefusesPhysicalTrapsInMemory(t *testing.T) {
	sched, err := fault.ParseSchedule("wal@1=drop")
	if err != nil {
		t.Fatal(err)
	}
	if sys, err := NewSystem(Config{Faults: sched.Injector()}); err == nil {
		sys.Close()
		t.Fatal("NewSystem armed a wal trap on the in-memory store")
	}
}

// TestCrashStartupGC covers the restart half of the session contract
// directly: a temp table that a session left behind when the process
// died is absent at the next boot with no sweep to collect it — its
// CREATE wrote nothing to the WAL, and the permanent table created
// while it lived did not carry it into the durable catalog.
func TestCrashStartupGC(t *testing.T) {
	dir := t.TempDir()
	sys, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	fd := sys.DB.FileDisk()
	bytes, records := fd.WALStats()
	if err := sys.MW.Conn.CreateTable("TMP_TANGO_ORPHAN",
		types.Schema{Cols: []types.Column{{Name: "X", Kind: types.KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if b, r := fd.WALStats(); b != bytes || r != records {
		t.Errorf("temp CREATE moved the WAL from %d bytes/%d records to %d/%d", bytes, records, b, r)
	}
	if _, err := sys.MW.Conn.Exec("CREATE TABLE KEPT (X INTEGER)"); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: kill -9.
	rec, err := NewSystem(crashConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	noTempNamed(t, dir, rec)
	if _, err := rec.DB.Table("KEPT"); err != nil {
		t.Errorf("permanent table lost at reopen: %v", err)
	}
	if !rec.Reopened {
		t.Error("system did not report the reopen")
	}
}
