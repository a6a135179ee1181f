package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tango/internal/storage"
	"tango/internal/types"
)

// durableTestDB seeds the POSITION/EMP fixture into a durable DB.
func durableTestDB(t *testing.T, dir string) *DB {
	t.Helper()
	db, _, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("exec %q: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE POSITION (PosID INTEGER, EmpName VARCHAR(40), T1 INTEGER, T2 INTEGER)")
	mustExec("INSERT INTO POSITION VALUES (1, 'Tom', 2, 20), (1, 'Jane', 5, 25), (2, 'Tom', 5, 10)")
	mustExec("CREATE TABLE EMP (EmpName VARCHAR(40), Addr VARCHAR(60), Salary FLOAT)")
	mustExec("INSERT INTO EMP VALUES ('Tom', '12 Elm St', 30.5), ('Jane', '9 Oak Av', 42.0), ('Bob', '1 Pine Rd', 25.0)")
	if err := db.CreateIndex("POSITION", "PosID"); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryRows(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	r := queryAll(t, db, sql)
	rows := make([]string, len(r.Tuples))
	for i, tp := range r.Tuples {
		parts := make([]string, len(tp))
		for j, v := range tp {
			parts[j] = v.AsString()
		}
		rows[i] = strings.Join(parts, "|")
	}
	return rows
}

func TestOpenAtSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db := durableTestDB(t, dir)
	want := queryRows(t, db, "SELECT * FROM POSITION ORDER BY T1, EmpName")
	wantJoin := queryRows(t, db,
		"SELECT p.PosID, e.Salary FROM POSITION p, EMP e WHERE p.EmpName = e.EmpName ORDER BY p.PosID, e.Salary")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, stats, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if stats.ChecksumFailures != 0 {
		t.Errorf("restart recovery stats: %+v", stats)
	}
	names := db2.TableNames()
	if len(names) != 2 || names[0] != "EMP" || names[1] != "POSITION" {
		t.Fatalf("recovered tables: %v", names)
	}
	if got := queryRows(t, db2, "SELECT * FROM POSITION ORDER BY T1, EmpName"); !equalRows(got, want) {
		t.Errorf("POSITION after restart:\n got %v\nwant %v", got, want)
	}
	if got := queryRows(t, db2,
		"SELECT p.PosID, e.Salary FROM POSITION p, EMP e WHERE p.EmpName = e.EmpName ORDER BY p.PosID, e.Salary"); !equalRows(got, wantJoin) {
		t.Errorf("join after restart:\n got %v\nwant %v", got, wantJoin)
	}
	// The index catalog entry survived and the index was rebuilt.
	pos, err := db2.Table("POSITION")
	if err != nil {
		t.Fatal(err)
	}
	if pos.Index("PosID") == nil {
		t.Error("index on POSITION(PosID) not rebuilt after restart")
	}
	// The recovered DB accepts further writes.
	if _, err := db2.Exec("INSERT INTO EMP VALUES ('Ann', '3 Fir Ln', 50.0)"); err != nil {
		t.Fatal(err)
	}
	if got := queryRows(t, db2, "SELECT COUNT(*) FROM EMP"); len(got) != 1 || got[0] != "4" {
		t.Errorf("EMP count after insert: %v", got)
	}
}

func TestOpenAtKillMinusNine(t *testing.T) {
	// Abandon the DB without Close: everything committed through the
	// engine's durability barrier must survive on the WAL alone.
	dir := t.TempDir()
	db := durableTestDB(t, dir)
	want := queryRows(t, db, "SELECT * FROM EMP ORDER BY EmpName")
	// No Close. Reopen the directory.
	db2, _, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := queryRows(t, db2, "SELECT * FROM EMP ORDER BY EmpName"); !equalRows(got, want) {
		t.Errorf("EMP after kill -9:\n got %v\nwant %v", got, want)
	}
}

func TestOpenAtBulkLoadAtomicity(t *testing.T) {
	// Crash at every WAL write point of a bulk load (the T^D transfer
	// path: CREATE TABLE + direct-path load); the recovered table must
	// hold either zero rows (pre-load) or all rows (post-load) — never
	// a torn prefix. Multi-row INSERT, by contrast, commits per row
	// (autocommit) and makes no atomicity claim.
	const rows = 400
	tuples := make([]types.Tuple, rows)
	for i := range tuples {
		tuples[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("name-%d", i))}
	}

	workload := func(db *DB) error {
		if _, err := db.Exec("CREATE TABLE T (ID INTEGER, Name VARCHAR(40))"); err != nil {
			return err
		}
		return db.BulkLoad("T", tuples)
	}

	// Observer run: count crash points.
	obs, _, err := OpenAt(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	script := storage.NewCrashScript()
	obs.FileDisk().SetCrashScript(script)
	if err := workload(obs); err != nil {
		t.Fatal(err)
	}
	total := script.Observed(storage.TargetWAL)
	if total < 3 {
		t.Fatalf("workload has only %d WAL points", total)
	}

	for n := int64(1); n <= total; n++ {
		dir := t.TempDir()
		db, _, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		db.FileDisk().SetCrashScript(storage.NewCrashScript(
			storage.CrashPoint{Target: storage.TargetWAL, Nth: n, Mode: storage.CrashTorn}))
		werr := workload(db)
		if werr == nil {
			t.Fatalf("wal@%d: workload survived its crash point", n)
		}
		if !errors.Is(werr, storage.ErrCrashed) {
			t.Fatalf("wal@%d: error %v does not unwrap to ErrCrashed", n, werr)
		}
		rec, _, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatalf("wal@%d: recover: %v", n, err)
		}
		if _, err := rec.Table("T"); err != nil {
			// Table creation never committed: pre-CREATE state. Fine.
			rec.Close()
			continue
		}
		got := queryRows(t, rec, "SELECT COUNT(*) FROM T")
		if len(got) != 1 || (got[0] != "0" && got[0] != fmt.Sprint(rows)) {
			t.Errorf("wal@%d: recovered row count %v, want 0 or %d (atomic load)", n, got, rows)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func equalRows(a, b []string) bool {
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

// TestFailedBulkLoadLeavesNoRows: a bulk load that fails on a row too
// large for a page leaves its table as it was, on both stores: the
// next load neither publishes nor indexes the failed load's pages, and
// on a FileDisk the failed load's open mark is cleared, so a reopen
// agrees.
func TestFailedBulkLoadLeavesNoRows(t *testing.T) {
	for _, durable := range []bool{false, true} {
		dir := t.TempDir()
		db := Open(Config{})
		if durable {
			var err error
			if db, _, err = OpenAt(dir, Config{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Exec("CREATE TABLE T (ID INTEGER, Name VARCHAR(10000))"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndex("T", "ID"); err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Tuple, 301)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("n%d", i))}
		}
		rows[300][1] = types.Str(strings.Repeat("x", 9000))
		if err := db.BulkLoad("T", rows); !errors.Is(err, storage.ErrPageFull) {
			t.Fatalf("durable=%t: load of an oversize row: %v, want ErrPageFull", durable, err)
		}
		count := func(db *DB, sql string) string {
			got := queryRows(t, db, sql)
			if len(got) != 1 {
				t.Fatalf("durable=%t: %s: %v", durable, sql, got)
			}
			return got[0]
		}
		if got := count(db, "SELECT COUNT(*) FROM T"); got != "0" {
			t.Fatalf("durable=%t: failed load left %s rows", durable, got)
		}
		if err := db.BulkLoad("T", []types.Tuple{{types.Int(1000), types.Str("ok")}}); err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{"SELECT COUNT(*) FROM T", "SELECT COUNT(*) FROM T WHERE ID >= 0"} {
			if got := count(db, sql); got != "1" {
				t.Errorf("durable=%t: %s after the next load = %s, want 1", durable, sql, got)
			}
		}
		if !durable {
			continue
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re, st, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := count(re, "SELECT COUNT(*) FROM T"); got != "1" || st.RolledBackLoads != 0 {
			t.Errorf("reopened: %s rows, %d loads rolled back; want 1 and 0", got, st.RolledBackLoads)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// transferRows is the forced_td aggregate's shape: n rows of (PosID,
// T1, T2, COUNT), as a T^D ships them into its temp table.
func transferRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		t1 := int64(9000 + i%400)
		rows[i] = types.Tuple{types.Int(int64(i / 3)), types.Date(t1), types.Date(t1 + 30), types.Int(int64(1 + i%7))}
	}
	return rows
}

const transferDDL = " (PosID INTEGER, T1 DATE, T2 DATE, N INTEGER)"

// metaFiles reads the file list of the store's meta.tango.
func metaFiles(t *testing.T, dir string) map[storage.FileID]int {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, "meta.tango"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Files map[storage.FileID]int }
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m.Files
}

// TestTempTableWritesNoWAL: a transfer temp table's CREATE, bulk load,
// full scan and DROP on a durable store write no WAL record and wait
// on no fsync, and a checkpoint taken while it lives writes no data
// file for it and lists none in meta.tango.
func TestTempTableWritesNoWAL(t *testing.T) {
	dir := t.TempDir()
	db, _, err := OpenAt(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fd := db.FileDisk()
	unmoved := func(step string) {
		t.Helper()
		bytes, records := fd.WALStats()
		_, _, fsyncs := fd.GroupCommitStats()
		if bytes != 0 || records != 0 || fsyncs != 0 {
			t.Fatalf("after %s: WAL %d bytes, %d records, %d fsyncs; want none", step, bytes, records, fsyncs)
		}
	}
	name := TempPrefix + "T"
	if _, err := db.Exec("CREATE TABLE " + name + transferDDL); err != nil {
		t.Fatal(err)
	}
	unmoved("CREATE")
	rows := transferRows(3600)
	if err := db.BulkLoad(name, rows); err != nil {
		t.Fatal(err)
	}
	unmoved("LOAD")
	want := make([]string, len(rows))
	for i, r := range rows {
		want[i] = fmt.Sprintf("%s|%s|%s|%s", r[0].AsString(), r[1].AsString(), r[2].AsString(), r[3].AsString())
	}
	got := queryRows(t, db, "SELECT PosID, T1, T2, N FROM "+name)
	slices.Sort(want)
	slices.Sort(got)
	if !equalRows(got, want) {
		t.Fatalf("scan returned %d rows, want the %d loaded", len(got), len(want))
	}
	unmoved("scan")

	tab, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	id := tab.Heap.File()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("f%08d.pg", id))); !os.IsNotExist(err) {
		t.Errorf("checkpoint wrote a data file for the temp table (stat: %v)", err)
	}
	if _, ok := metaFiles(t, dir)[id]; ok {
		t.Errorf("meta.tango lists the temp table's file %d", id)
	}
	_, _, fsyncs := fd.GroupCommitStats()
	if _, err := db.Exec("DROP TABLE " + name); err != nil {
		t.Fatal(err)
	}
	bytes, records := fd.WALStats()
	if _, _, f := fd.GroupCommitStats(); bytes != 0 || records != 0 || f != fsyncs {
		t.Errorf("DROP: WAL %d bytes, %d records, %d fsyncs; want none", bytes, records, f-fsyncs)
	}
}

// TestOpenAtDropsLegacyTempTable: a catalog written before temp tables
// became unlogged may name one over a logged file. OpenAt drops the
// table and its file and never publishes it, and the next checkpoint
// forgets both.
func TestOpenAtDropsLegacyTempTable(t *testing.T) {
	dir := t.TempDir()
	db := durableTestDB(t, dir)
	fd := db.FileDisk()
	id := fd.CreateFile()
	if _, err := fd.AppendPage(id); err != nil {
		t.Fatal(err)
	}
	doc, _ := fd.Meta("catalog")
	var cat catalogDoc
	if err := json.Unmarshal([]byte(doc), &cat); err != nil {
		t.Fatal(err)
	}
	cat.Tables = append(cat.Tables, catalogEntry{
		Name:   TempPrefix + "OLD",
		Schema: types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}),
		File:   id,
	})
	buf, err := json.Marshal(&cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.PutMeta("catalog", string(buf)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := metaFiles(t, dir)[id]; !ok {
		t.Fatalf("fixture: meta.tango does not list the legacy file %d", id)
	}

	for reopen := 1; reopen <= 2; reopen++ {
		db, _, err := OpenAt(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if names := db.TableNames(); !slices.Equal(names, []string{"EMP", "POSITION"}) {
			t.Errorf("reopen %d: tables %v, want [EMP POSITION]", reopen, names)
		}
		if db.FileDisk().HasFile(id) {
			t.Errorf("reopen %d: the legacy temp table's file %d survived", reopen, id)
		}
		if doc, _ := db.FileDisk().Meta("catalog"); strings.Contains(doc, TempPrefix) {
			t.Errorf("reopen %d: catalog still names a temp table: %s", reopen, doc)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok := metaFiles(t, dir)[id]; ok {
			t.Errorf("reopen %d: meta.tango still lists file %d", reopen, id)
		}
	}
}
