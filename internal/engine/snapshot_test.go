package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/storage"
	"tango/internal/types"
)

// gateStore wraps a Store and parks AppendPage on a channel once
// armed: the reader-not-blocked proof freezes a bulk load mid-extent
// while snapshot readers keep querying.
type gateStore struct {
	storage.Store
	mu      sync.Mutex
	armed   bool
	after   int // appends to allow before parking
	parked  chan struct{}
	release chan struct{}
}

func newGateStore() *gateStore {
	return &gateStore{
		Store:   storage.NewDisk(),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
}

// arm makes the n+1-th AppendPage from now block until release is
// closed.
func (g *gateStore) arm(n int) {
	g.mu.Lock()
	g.armed, g.after = true, n
	g.mu.Unlock()
}

func (g *gateStore) AppendPage(id storage.FileID) (int32, error) {
	g.mu.Lock()
	trip := g.armed && g.after <= 0
	if g.armed {
		g.after--
	}
	g.mu.Unlock()
	if trip {
		g.mu.Lock()
		g.armed = false
		g.mu.Unlock()
		close(g.parked)
		<-g.release
	}
	return g.Store.AppendPage(id)
}

// TestSnapshotReaderNotBlockedByLoad is the tentpole proof: a T^D bulk
// load parked inside a storage AppendPage must not block snapshot
// readers — they complete queries against both pre-existing tables and
// the load target (seeing its pre-load state) while the load is frozen.
func TestSnapshotReaderNotBlockedByLoad(t *testing.T) {
	gate := newGateStore()
	db := OpenWith(gate, Config{})

	if _, err := db.Exec("CREATE TABLE SRC (K INTEGER, V INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.Insert("SRC", types.Tuple{types.Int(int64(i)), types.Int(int64(i * 2))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("CREATE TABLE BIG (K INTEGER, V INTEGER)"); err != nil {
		t.Fatal(err)
	}
	preSeq := db.CommitSeq()

	// Park the load after two fresh extents (a page holds ~2,000 of
	// these rows).
	gate.arm(2)
	rows := make([]types.Tuple, 10000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
	}
	loadDone := make(chan error, 1)
	go func() { loadDone <- db.BulkLoad("BIG", rows) }()

	select {
	case <-gate.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("load never reached the gate")
	case err := <-loadDone:
		t.Fatalf("load finished without parking: %v", err)
	}

	// The load is frozen inside the store. Every read below must
	// complete; a reader that blocks behind the writer deadlocks the
	// test (the gate only opens after the reads finish).
	r, err := db.QueryAll("SELECT COUNT(K) FROM SRC")
	if err != nil {
		t.Fatalf("read during load: %v", err)
	}
	if got := r.Tuples[0][0].AsInt(); got != 50 {
		t.Fatalf("SRC count during load = %d, want 50", got)
	}
	r, err = db.QueryAll("SELECT COUNT(K) FROM BIG")
	if err != nil {
		t.Fatalf("read load target during load: %v", err)
	}
	if got := r.Tuples[0][0].AsInt(); got != 0 {
		t.Fatalf("BIG visible mid-load: count = %d, want 0 (torn read)", got)
	}
	if seq := db.CommitSeq(); seq != preSeq {
		t.Fatalf("commit seq advanced mid-load: %d -> %d", preSeq, seq)
	}

	close(gate.release)
	if err := <-loadDone; err != nil {
		t.Fatalf("load: %v", err)
	}
	r, err = db.QueryAll("SELECT COUNT(K) FROM BIG")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tuples[0][0].AsInt(); got != int64(len(rows)) {
		t.Fatalf("BIG after load = %d, want %d", got, len(rows))
	}
	if n := db.SnapshotsOpen(); n != 0 {
		t.Fatalf("leaked %d snapshots", n)
	}
}

// TestSnapshotRepeatableRead pins a snapshot, commits more rows, and
// verifies the snapshot still sees exactly its bound while fresh
// statements see the new state.
func TestSnapshotRepeatableRead(t *testing.T) {
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE T (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("T", types.Tuple{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	defer snap.Release()

	for i := 10; i < 25; i++ {
		if err := db.Insert("T", types.Tuple{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}

	// The pinned snapshot: 10 rows, repeatably.
	for pass := 0; pass < 2; pass++ {
		it, err := snap.Query("SELECT COUNT(K) FROM T")
		if err != nil {
			t.Fatal(err)
		}
		r, err := drainCount(it)
		if err != nil {
			t.Fatal(err)
		}
		if r != 10 {
			t.Fatalf("pass %d: snapshot count = %d, want 10", pass, r)
		}
	}
	// A fresh statement: 25 rows.
	r := queryAll(t, db, "SELECT COUNT(K) FROM T")
	if got := r.Tuples[0][0].AsInt(); got != 25 {
		t.Fatalf("current count = %d, want 25", got)
	}
}

// TestSnapshotDeferredDrop drops a table while a snapshot still pins
// it: the pinned reader keeps scanning the heap, and the pages are
// reclaimed only at release.
func TestSnapshotDeferredDrop(t *testing.T) {
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE D (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert("D", types.Tuple{types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	tbl, err := snap.Table("D")
	if err != nil {
		t.Fatal(err)
	}
	heapFile := tbl.Heap.File()
	pagesBefore := db.Disk().NumPages(heapFile)
	if pagesBefore == 0 {
		t.Fatal("expected a non-empty heap")
	}

	if _, err := db.Exec("DROP TABLE D"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("D"); err == nil {
		t.Fatal("D still visible in current version after drop")
	}
	// The drop is deferred: the pinned snapshot still reads the heap.
	it, err := snap.Query("SELECT COUNT(K) FROM D")
	if err != nil {
		t.Fatalf("pinned read after drop: %v", err)
	}
	n, err := drainCount(it)
	if err != nil {
		t.Fatalf("pinned scan after drop: %v", err)
	}
	if n != 500 {
		t.Fatalf("pinned count after drop = %d, want 500", n)
	}
	if got := db.Disk().NumPages(heapFile); got != pagesBefore {
		t.Fatalf("heap reclaimed while pinned: %d pages, want %d", got, pagesBefore)
	}

	snap.Release()
	if got := db.Disk().NumPages(heapFile); got != 0 {
		t.Fatalf("heap not reclaimed at release: %d pages", got)
	}
	if n := db.SnapshotsOpen(); n != 0 {
		t.Fatalf("leaked %d snapshots", n)
	}
}

// drainCount reads a single-row COUNT iterator and closes it.
func drainCount(it rel.Iterator) (int64, error) {
	out, err := rel.Drain(it)
	if err != nil {
		return 0, err
	}
	if len(out.Tuples) != 1 {
		return 0, fmt.Errorf("count query returned %d rows", len(out.Tuples))
	}
	return out.Tuples[0][0].AsInt(), nil
}

// TestSnapshotIsolationProperty is the seeded-scheduler isolation
// check: K writers append tagged rows to their own tables while M
// readers pin snapshots at random points. The commit hook records the
// serial publish history; every reader's observation must equal the
// history's exact prefix at its pinned commit sequence — no torn
// counts, no rows from the future, independent of interleaving.
func TestSnapshotIsolationProperty(t *testing.T) {
	const (
		writers        = 4
		readers        = 4
		rowsPerWriter  = 60
		readsPerReader = 40
	)
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			db := Open(Config{})
			tables := make([]string, writers)
			for w := 0; w < writers; w++ {
				tables[w] = fmt.Sprintf("W%d", w)
				if _, err := db.Exec(fmt.Sprintf("CREATE TABLE %s (WR INTEGER, I INTEGER)", tables[w])); err != nil {
					t.Fatal(err)
				}
			}

			// Serial history: inserted-row count per table keyed by the
			// publishing commit sequence. The hook runs under the writer
			// lock in sequence order, before the version is loadable.
			var (
				histMu  sync.Mutex
				history = map[uint64][writers]int{}
				counts  [writers]int
			)
			history[db.CommitSeq()] = counts
			db.SetCommitHook(func(seq uint64, table, op string) {
				histMu.Lock()
				defer histMu.Unlock()
				if op == "insert" {
					for w, name := range tables {
						if key(name) == key(table) {
							counts[w]++
						}
					}
				}
				history[seq] = counts
			})

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
					for i := 0; i < rowsPerWriter; i++ {
						if err := db.Insert(tables[w], types.Tuple{types.Int(int64(w)), types.Int(int64(i))}); err != nil {
							t.Error(err)
							return
						}
						if rng.Intn(4) == 0 {
							time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*2000 + int64(r)))
					for i := 0; i < readsPerReader; i++ {
						snap := db.Snapshot()
						seq := snap.Seq()
						histMu.Lock()
						want, ok := history[seq]
						histMu.Unlock()
						if !ok {
							snap.Release()
							t.Errorf("reader %d: no history for pinned seq %d", r, seq)
							return
						}
						order := rng.Perm(writers)
						for _, w := range order {
							it, err := snap.Query(fmt.Sprintf("SELECT COUNT(WR) FROM %s", tables[w]))
							if err != nil {
								snap.Release()
								t.Error(err)
								return
							}
							got, err := drainCount(it)
							if err != nil {
								snap.Release()
								t.Error(err)
								return
							}
							if got != int64(want[w]) {
								snap.Release()
								t.Errorf("reader %d seq %d: table %s count = %d, want %d (serial history prefix)",
									r, seq, tables[w], got, want[w])
								return
							}
						}
						snap.Release()
						if rng.Intn(3) == 0 {
							time.Sleep(time.Duration(rng.Intn(30)) * time.Microsecond)
						}
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Final state: every table holds all its writer's rows.
			for w := 0; w < writers; w++ {
				r := queryAll(t, db, fmt.Sprintf("SELECT COUNT(WR) FROM %s", tables[w]))
				if got := r.Tuples[0][0].AsInt(); got != rowsPerWriter {
					t.Fatalf("table %s final count = %d, want %d", tables[w], got, rowsPerWriter)
				}
			}
			if n := db.SnapshotsOpen(); n != 0 {
				t.Fatalf("leaked %d snapshots", n)
			}
		})
	}
}

// TestConcurrentQueriesDuringInserts drives full SELECT pipelines
// (joins, aggregates) while writers commit — a smoke check that the
// executor stack over pinned versions is race-free end to end.
func TestConcurrentQueriesDuringInserts(t *testing.T) {
	db := testDB(t)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Capped: an unbounded writer grows the join inputs quadratically
		// and turns the readers' fixed workload into an unbounded one.
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Insert("POSITION", types.Tuple{
				types.Int(int64(3 + i)), types.Str("W"),
				types.Int(int64(i)), types.Int(int64(i + 5)),
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	queries := []string{
		"SELECT COUNT(PosID) FROM POSITION",
		"SELECT EmpName, T1 FROM POSITION WHERE PosID = 1 ORDER BY T1",
		"SELECT P.EmpName, E.Salary FROM POSITION P, EMP E WHERE P.EmpName = E.EmpName",
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 30; i++ {
				if _, err := db.QueryAll(queries[(r+i)%len(queries)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent workload wedged")
	}
	close(stop)
	writer.Wait()
	if n := db.SnapshotsOpen(); n != 0 {
		t.Fatalf("leaked %d snapshots", n)
	}
}
