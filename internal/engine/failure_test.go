package engine

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/fault"
	"tango/internal/storage"
	"tango/internal/types"
)

// trap builds an injector that fails the nth call of op once.
func trap(op fault.Op, n int64) *fault.Injector {
	return fault.Schedule{Traps: []fault.Trap{{Op: op, Nth: n, Kind: fault.KindDrop}}}.Injector()
}

// failureDB builds a table large enough that scans must go back to the
// disk past the buffer pool.
func failureDB(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{BufferPoolPages: 2})
	if _, err := db.Exec("CREATE TABLE T (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 180)
	for i := range long {
		long[i] = 'x'
	}
	for i := 0; i < 500; i++ {
		if err := db.Insert("T", types.Tuple{types.Int(int64(i)), types.Str(string(long))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestScanSurfacesInjectedReadError(t *testing.T) {
	db := failureDB(t)
	db.Disk().SetFaults(trap(fault.OpRead, 4))
	_, err := db.QueryAll("SELECT K FROM T")
	if err == nil {
		t.Fatal("scan over failing disk should error")
	}
	if !errors.Is(err, storage.ErrInjectedRead) {
		t.Errorf("error should wrap the injected failure: %v", err)
	}
	// The disk recovers; the next query works (failure is one-shot).
	out, err := db.QueryAll("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatalf("post-failure query: %v", err)
	}
	if out.Tuples[0][0].AsInt() != 500 {
		t.Errorf("rows after recovery: %v", out)
	}
}

func TestJoinSurfacesInjectedReadError(t *testing.T) {
	db := failureDB(t)
	if _, err := db.Exec("CREATE TABLE S (K INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO S VALUES (1),(2)"); err != nil {
		t.Fatal(err)
	}
	db.Disk().SetFaults(trap(fault.OpRead, 6))
	if _, err := db.QueryAll("SELECT T.K FROM T, S WHERE T.K = S.K"); err == nil {
		t.Fatal("join over failing disk should error")
	}
}

func TestInsertSurfacesInjectedWriteError(t *testing.T) {
	db := Open(Config{BufferPoolPages: 1})
	if _, err := db.Exec("CREATE TABLE W (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	db.Disk().SetFaults(trap(fault.OpWrite, 3))
	var sawErr bool
	long := make([]byte, 190)
	for i := range long {
		long[i] = 'y'
	}
	// With a one-page pool, filling pages forces evictions and disk
	// writes; the injected failure must surface as an insert error.
	for i := 0; i < 400; i++ {
		if err := db.Insert("W", types.Tuple{types.Int(int64(i)), types.Str(string(long))}); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("no insert error despite injected write failure")
	}
}

func TestBulkLoadSurfacesInjectedWriteError(t *testing.T) {
	db := Open(Config{BufferPoolPages: 1})
	if _, err := db.Exec("CREATE TABLE B (K INTEGER, V VARCHAR(200))"); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Tuple, 500)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("%0180d", i))}
	}
	db.Disk().SetFaults(trap(fault.OpWrite, 3))
	if err := db.BulkLoad("B", rows); err == nil {
		t.Fatal("bulk load over failing disk should error")
	}
}
