package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tango/internal/types"
)

// --- WAL codec ---

func walRecordFixtures() []*walRecord {
	img := make([]byte, PageSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	return []*walRecord{
		{typ: recCreate, file: 3},
		{typ: recDrop, file: 9},
		{typ: recAppend, file: 3, pageNo: 17},
		{typ: recImage, file: 3, pageNo: 17, image: img},
		{typ: recBeginLoad, file: 4, pagesBefore: 2, name: "EMPLOYEE"},
		{typ: recCommitLoad, file: 4},
		{typ: recMeta, key: "catalog", val: `{"tables":[]}`},
		{typ: recMeta, key: "", val: ""},
		{typ: recTruncate, file: 4, pageNo: 2},
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	var buf []byte
	fixtures := walRecordFixtures()
	for i, r := range fixtures {
		r.lsn = uint64(i + 1)
		buf = encodeWALRecord(buf, r)
	}
	recs, validLen, torn := readWALRecords(buf)
	if torn {
		t.Fatal("clean log reported torn")
	}
	if validLen != len(buf) {
		t.Fatalf("validLen = %d, want %d", validLen, len(buf))
	}
	if len(recs) != len(fixtures) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(fixtures))
	}
	for i, got := range recs {
		want := fixtures[i]
		if got.lsn != want.lsn || got.typ != want.typ || got.file != want.file ||
			got.pageNo != want.pageNo || got.pagesBefore != want.pagesBefore ||
			got.name != want.name || got.key != want.key || got.val != want.val ||
			!bytes.Equal(got.image, want.image) {
			t.Errorf("record %d (%v) did not round-trip", i, want.typ)
		}
	}
}

func TestWALTornTailTruncation(t *testing.T) {
	var buf []byte
	for i, r := range walRecordFixtures() {
		r.lsn = uint64(i + 1)
		buf = encodeWALRecord(buf, r)
	}
	full, fullLen, _ := readWALRecords(buf)
	// Every strict prefix must decode to a prefix of the records with a
	// torn tail (unless it lands exactly on a frame boundary).
	for cut := 0; cut < len(buf); cut += 97 {
		recs, validLen, torn := readWALRecords(buf[:cut])
		if validLen > cut {
			t.Fatalf("cut %d: validLen %d beyond data", cut, validLen)
		}
		if !torn && validLen != cut {
			t.Fatalf("cut %d: tail not reported torn", cut)
		}
		for i, r := range recs {
			if r.lsn != full[i].lsn {
				t.Fatalf("cut %d: record %d lsn %d, want %d", cut, i, r.lsn, full[i].lsn)
			}
		}
	}
	// Flipping a byte inside a frame severs the log at that frame.
	mut := append([]byte(nil), buf...)
	mut[fullLen/2] ^= 0xff
	recs, _, torn := readWALRecords(mut)
	if !torn {
		t.Fatal("corrupted log not reported torn")
	}
	if len(recs) >= len(full) {
		t.Fatalf("corruption lost no records (%d of %d)", len(recs), len(full))
	}
}

func FuzzWALDecode(f *testing.F) {
	for i, r := range walRecordFixtures() {
		r.lsn = uint64(i + 1)
		f.Add(encodeWALRecord(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic, and the valid prefix must re-encode to the
		// exact bytes it was decoded from.
		recs, validLen, _ := readWALRecords(data)
		if validLen > len(data) {
			t.Fatalf("validLen %d > len %d", validLen, len(data))
		}
		var re []byte
		for _, r := range recs {
			cp := *r
			if cp.image != nil {
				cp.image = append([]byte(nil), cp.image...)
			}
			re = encodeWALRecord(re, &cp)
		}
		if !bytes.Equal(re, data[:validLen]) {
			t.Fatalf("re-encode mismatch: %d bytes vs %d valid", len(re), validLen)
		}
	})
}

// --- page frames ---

func TestPageFrameChecksum(t *testing.T) {
	payload := make([]byte, PageSize)
	copy(payload, "temporal middleware")
	frame := encodePageFrame(nil, 5, 11, payload)
	if len(frame) != pageFrameSize {
		t.Fatalf("frame size %d, want %d", len(frame), pageFrameSize)
	}
	if !verifyPageFrame(5, 11, frame) {
		t.Fatal("clean frame failed verification")
	}
	// The CRC binds the frame to its (file, page) address.
	if verifyPageFrame(6, 11, frame) || verifyPageFrame(5, 12, frame) {
		t.Fatal("frame verified at the wrong address")
	}
	frame[100] ^= 1
	if verifyPageFrame(5, 11, frame) {
		t.Fatal("corrupted frame verified")
	}
}

// --- FileDisk: durability and recovery ---

// pageWithRecord returns a page whose first row is rec, followed by a
// row spreading rec over both halves of the page, so a torn write of
// the page cannot match its old or new image.
func pageWithRecord(t *testing.T, rec string) *Page {
	return pageOf(t, tup(rec), tup(strings.Repeat(rec, 6000/max(len(rec), 1))))
}

func readRecord(t *testing.T, s Store, pid PageID) string {
	t.Helper()
	var p Page
	if err := s.ReadPage(pid, &p); err != nil {
		t.Fatalf("ReadPage %v: %v", pid, err)
	}
	rows := pageRows(t, &p)
	if len(rows) == 0 {
		t.Fatalf("page %v holds no row", pid)
	}
	return rows[0][0].AsString()
}

func TestFileDiskPersistAcrossRecover(t *testing.T) {
	dir := t.TempDir()
	fd, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplayedRecords != 0 || st.ChecksumFailures != 0 {
		t.Fatalf("fresh dir recovery stats: %+v", st)
	}
	f := fd.CreateFile()
	for i := 0; i < 3; i++ {
		if _, err := fd.AppendPage(f); err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.PutMeta("catalog", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulated kill -9: no Close, no checkpoint — the WAL alone must
	// carry the state.
	fd2, st2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ReplayedRecords == 0 {
		t.Fatal("no WAL records replayed")
	}
	for i := 0; i < 3; i++ {
		if got, want := readRecord(t, fd2, PageID{File: f, No: int32(i)}), fmt.Sprintf("rec-%d", i); got != want {
			t.Errorf("page %d = %q, want %q", i, got, want)
		}
	}
	if v, ok := fd2.Meta("catalog"); !ok || v != "v1" {
		t.Errorf("meta = %q, %v", v, ok)
	}
	// Clean close writes a checkpoint; a third recovery replays nothing.
	if err := fd2.Close(); err != nil {
		t.Fatal(err)
	}
	fd3, st3, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ReplayedRecords != 0 {
		t.Errorf("post-checkpoint recovery replayed %d records", st3.ReplayedRecords)
	}
	if got := readRecord(t, fd3, PageID{File: f, No: 1}); got != "rec-1" {
		t.Errorf("after checkpoint: %q", got)
	}
	if fd3.Close() != nil {
		t.Fatal("close")
	}
}

func TestFileDiskUnsyncedWritesDoNotSurvive(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.CreateFile()
	if _, err := fd.AppendPage(f); err != nil {
		t.Fatal(err)
	}
	if err := fd.WritePage(PageID{File: f, No: 0}, pageWithRecord(t, "durable")); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	// Past the barrier: never synced, must vanish.
	if err := fd.WritePage(PageID{File: f, No: 0}, pageWithRecord(t, "volatile")); err != nil {
		t.Fatal(err)
	}
	g := fd.CreateFile()
	if _, err := fd.AppendPage(g); err != nil {
		t.Fatal(err)
	}
	fd2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := readRecord(t, fd2, PageID{File: f, No: 0}); got != "durable" {
		t.Errorf("recovered %q, want %q", got, "durable")
	}
	if fd2.HasFile(g) {
		t.Error("unsynced file survived recovery")
	}
}

func TestFileDiskDropFileRecover(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep, drop := fd.CreateFile(), fd.CreateFile()
	for _, f := range []FileID{keep, drop} {
		if _, err := fd.AppendPage(f); err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: f, No: 0}, pageWithRecord(t, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.Checkpoint(); err != nil { // both files reach the directory
		t.Fatal(err)
	}
	fd.DropFile(drop)
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	fd2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fd2.HasFile(keep) || fd2.HasFile(drop) {
		t.Fatalf("HasFile: keep=%v drop=%v", fd2.HasFile(keep), fd2.HasFile(drop))
	}
	// The dropped file's page file must be gone from the directory.
	if _, err := os.Stat(dataPath(dir, drop)); !os.IsNotExist(err) {
		t.Errorf("dropped page file still present: %v", err)
	}
	// File IDs keep advancing past the dropped one.
	if id := fd2.CreateFile(); id <= drop {
		t.Errorf("recovered allocator reissued id %d", id)
	}
}

func TestFileDiskLoadRollback(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.CreateFile()
	if _, err := fd.AppendPage(f); err != nil {
		t.Fatal(err)
	}
	if err := fd.WritePage(PageID{File: f, No: 0}, pageWithRecord(t, "before")); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	// An uncommitted bulk load: the begin mark and the loaded pages are
	// synced, but the commit never happens.
	if err := fd.BeginLoad(f, "EMPLOYEE"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := fd.AppendPage(f); err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, "loaded")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	fd2, st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.RolledBackLoads != 1 {
		t.Errorf("RolledBackLoads = %d, want 1", st.RolledBackLoads)
	}
	if n := fd2.NumPages(f); n != 1 {
		t.Fatalf("after rollback NumPages = %d, want 1", n)
	}
	if got := readRecord(t, fd2, PageID{File: f, No: 0}); got != "before" {
		t.Errorf("pre-load page = %q", got)
	}
	// A committed load survives.
	if err := fd2.BeginLoad(f, "EMPLOYEE"); err != nil {
		t.Fatal(err)
	}
	if _, err := fd2.AppendPage(f); err != nil {
		t.Fatal(err)
	}
	if err := fd2.WritePage(PageID{File: f, No: 1}, pageWithRecord(t, "loaded")); err != nil {
		t.Fatal(err)
	}
	if err := fd2.CommitLoad(f); err != nil {
		t.Fatal(err)
	}
	if err := fd2.Sync(); err != nil {
		t.Fatal(err)
	}
	fd3, st3, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.RolledBackLoads != 0 {
		t.Errorf("committed load rolled back")
	}
	if n := fd3.NumPages(f); n != 2 {
		t.Errorf("after committed load NumPages = %d, want 2", n)
	}
}

// TestFileDiskTruncateEndsLoad: truncating a file under an open load
// — how a failed bulk load rolls back — is replayed from the log, ends
// the load (recovery has nothing left to roll back), and later appends
// land where the cut left off.
func TestFileDiskTruncateEndsLoad(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.CreateFile()
	write := func(fd *FileDisk, rec string) {
		t.Helper()
		no, err := fd.AppendPage(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: f, No: no}, pageWithRecord(t, rec)); err != nil {
			t.Fatal(err)
		}
	}
	write(fd, "before")
	if err := fd.BeginLoad(f, "T"); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		write(fd, "failed")
	}
	if err := fd.Truncate(f, 1); err != nil {
		t.Fatal(err)
	}
	write(fd, "after")
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	rec, st, err := Recover(dir) // the log is replayed: no checkpoint ran
	if err != nil {
		t.Fatal(err)
	}
	if st.RolledBackLoads != 0 || rec.NumPages(f) != 2 {
		t.Fatalf("recovered %d pages, %d loads rolled back; want 2 and 0", rec.NumPages(f), st.RolledBackLoads)
	}
	for i, want := range []string{"before", "after"} {
		if got := readRecord(t, rec, PageID{File: f, No: int32(i)}); got != want {
			t.Errorf("page %d = %q, want %q", i, got, want)
		}
	}
}

// TestRecoverRefusesOtherPageFormat: a store whose meta.tango records
// no page format — written with slotted row pages — is refused, typed,
// rather than read as blocks.
func TestRecoverRefusesOtherPageFormat(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(metaPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(buf, []byte(fmt.Sprintf(`"PageFormat":%d,`, pageFormat)), nil, 1)
	if bytes.Equal(old, buf) {
		t.Fatalf("meta.tango records no page format: %s", buf)
	}
	if err := os.WriteFile(metaPath(dir), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); !errors.Is(err, ErrPageFormat) {
		t.Fatalf("Recover of a store without a page format: %v, want ErrPageFormat", err)
	}
}

func TestFileDiskCrashScriptWAL(t *testing.T) {
	// Count the WAL write points of a fixed workload with an observer
	// script, then crash at each one and verify the recovered state is
	// a clean prefix of the sync history.
	workload := func(fd *FileDisk) (FileID, error) {
		f := fd.CreateFile()
		for i := 0; i < 4; i++ {
			if _, err := fd.AppendPage(f); err != nil {
				return f, err
			}
			if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("v%d", i))); err != nil {
				return f, err
			}
			if err := fd.Sync(); err != nil {
				return f, err
			}
		}
		return f, nil
	}
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	observer := NewCrashScript()
	fd.SetCrashScript(observer)
	if _, err := workload(fd); err != nil {
		t.Fatal(err)
	}
	total := observer.Observed(TargetWAL)
	if total == 0 {
		t.Fatal("workload produced no WAL write points")
	}
	for n := int64(1); n <= total; n++ {
		for _, mode := range []CrashMode{CrashOmit, CrashTorn} {
			dir := t.TempDir()
			fd, _, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			script := NewCrashScript(CrashPoint{Target: TargetWAL, Nth: n, Mode: mode})
			fd.SetCrashScript(script)
			f, werr := workload(fd)
			if !errors.Is(werr, ErrCrashed) {
				t.Fatalf("wal@%d=%d: workload error %v, want ErrCrashed", n, mode, werr)
			}
			if !fd.Crashed() {
				t.Fatalf("wal@%d: store not dead", n)
			}
			// Dead store rejects everything.
			if err := fd.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Sync on dead store: %v", err)
			}
			if _, err := fd.AppendPage(f); !errors.Is(err, ErrCrashed) {
				t.Fatalf("AppendPage on dead store: %v", err)
			}
			rec, st, err := Recover(dir)
			if err != nil {
				t.Fatalf("wal@%d=%d: recover: %v", n, mode, err)
			}
			if mode == CrashTorn && st.TornTails == 0 {
				t.Errorf("wal@%d=torn: no torn tail detected", n)
			}
			// Recovered pages must be a prefix of the write history:
			// page i holds v<i> or — only if the crash fell between its
			// append and image records — is empty; once one page is
			// empty every later page must be absent or empty too.
			np := rec.NumPages(f)
			if !rec.HasFile(f) {
				np = 0
			}
			content := true
			for i := 0; i < np; i++ {
				var p Page
				if err := rec.ReadPage(PageID{File: f, No: int32(i)}, &p); err != nil {
					t.Fatalf("wal@%d=%d: read page %d: %v", n, mode, i, err)
				}
				if rows := pageRows(t, &p); len(rows) == 0 {
					content = false
				} else {
					if !content {
						t.Errorf("wal@%d=%d: page %d has content after an empty page", n, mode, i)
					}
					if got, want := rows[0][0].AsString(), fmt.Sprintf("v%d", i); got != want {
						t.Errorf("wal@%d=%d: page %d = %q, want %q", n, mode, i, got, want)
					}
				}
			}
		}
	}
}

func TestFileDiskCrashScriptCheckpoint(t *testing.T) {
	// Crash at every data-page write point of an *incremental*
	// checkpoint: first a clean checkpoint puts version-1 pages in the
	// directory, then every page is rewritten to version 2 and the
	// second checkpoint crashes mid-write. A partial write tears a
	// version-1 frame in place; recovery must detect it by checksum and
	// repair it from the version-2 WAL image synced at the start of the
	// crashed checkpoint.
	prep := func(dir string) (*FileDisk, FileID) {
		fd, _, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		f := fd.CreateFile()
		for i := 0; i < 5; i++ {
			if _, err := fd.AppendPage(f); err != nil {
				t.Fatal(err)
			}
			if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("p%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := fd.Checkpoint(); err != nil { // version 1 durably in the directory
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("q%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return fd, f
	}
	obsDir := t.TempDir()
	fd, _ := prep(obsDir)
	observer := NewCrashScript()
	fd.SetCrashScript(observer)
	if err := fd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	total := observer.Observed(TargetPage)
	if total != 5 {
		t.Fatalf("checkpoint wrote %d page points, want 5", total)
	}
	for n := int64(1); n <= total; n++ {
		for _, mode := range []CrashMode{CrashOmit, CrashPartial} {
			dir := t.TempDir()
			fd, f := prep(dir)
			fd.SetCrashScript(NewCrashScript(CrashPoint{Target: TargetPage, Nth: n, Mode: mode}))
			if err := fd.Checkpoint(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("page@%d=%d: checkpoint error %v", n, mode, err)
			}
			rec, st, err := Recover(dir)
			if err != nil {
				t.Fatalf("page@%d=%d: recover: %v", n, mode, err)
			}
			if mode == CrashPartial && st.ChecksumFailures == 0 {
				t.Errorf("page@%d=partial: torn page not detected by checksum", n)
			}
			if st.ChecksumFailures > 0 && st.RepairedPages == 0 {
				t.Errorf("page@%d=%d: damaged page not repaired from WAL", n, mode)
			}
			// The version-2 images were durable before any page write, so
			// recovery always lands on version 2.
			for i := 0; i < 5; i++ {
				if got, want := readRecord(t, rec, PageID{File: f, No: int32(i)}), fmt.Sprintf("q%d", i); got != want {
					t.Errorf("page@%d=%d: page %d = %q, want %q", n, mode, i, got, want)
				}
			}
		}
	}
}

func TestFileDiskAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	fd.CheckpointBytes = 4 * PageSize
	f := fd.CreateFile()
	for i := 0; i < 8; i++ {
		if _, err := fd.AppendPage(f); err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: f, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := fd.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// The threshold must have forced at least one checkpoint: the data
	// file exists, and the current WAL is shorter than the full history.
	if _, err := os.Stat(dataPath(dir, f)); err != nil {
		t.Fatalf("no checkpointed data file: %v", err)
	}
	bytes, _ := fd.WALStats()
	if bytes >= int64(8*PageSize) {
		t.Errorf("WAL never truncated by checkpoint: %d bytes", bytes)
	}
	fd2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got, want := readRecord(t, fd2, PageID{File: f, No: int32(i)}), fmt.Sprintf("a%d", i); got != want {
			t.Errorf("page %d = %q, want %q", i, got, want)
		}
	}
}

func TestRecoverRejectsUncoveredCorruption(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.CreateFile()
	if _, err := fd.AppendPage(f); err != nil {
		t.Fatal(err)
	}
	if err := fd.WritePage(PageID{File: f, No: 0}, pageWithRecord(t, "x")); err != nil {
		t.Fatal(err)
	}
	if err := fd.Close(); err != nil { // checkpoint: WAL now empty
		t.Fatal(err)
	}
	// Flip a byte in the checkpointed page file. With an empty WAL there
	// is no image to repair from: recovery must refuse.
	path := dataPath(dir, f)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st, err := Recover(dir); err == nil {
		t.Fatalf("recovery accepted uncovered corruption (stats %+v)", st)
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("error does not mention checksum: %v", err)
	}
}

func TestCrashScriptParseTarget(t *testing.T) {
	for _, tgt := range []CrashTarget{TargetWAL, TargetPage} {
		got, err := ParseCrashTarget(tgt.String())
		if err != nil || got != tgt {
			t.Errorf("ParseCrashTarget(%q) = %v, %v", tgt.String(), got, err)
		}
	}
	if _, err := ParseCrashTarget("fetch"); err == nil {
		t.Error("wire op accepted as crash target")
	}
}

// --- BufferPool.FlushAll partial-failure semantics (regression) ---

func TestFlushAllPartialFailureKeepsFramesDirty(t *testing.T) {
	d := NewDisk()
	f := d.CreateFile()
	bp := NewBufferPool(d, 8)
	for i := 0; i < 4; i++ {
		pid, p, err := bp.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		*p = *pageOf(t, tup(i))
		bp.Unpin(pid)
	}
	if got := bp.Dirty(); got != 4 {
		t.Fatalf("Dirty = %d, want 4", got)
	}
	// Fail the second write: page 1 must stay dirty while 0, 2, 3 flush.
	d.FailWritesAfter(1)
	err := bp.FlushAll()
	if err == nil {
		t.Fatal("FlushAll swallowed the injected write failure")
	}
	if !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("error lost the cause: %v", err)
	}
	if got := bp.Dirty(); got != 1 {
		t.Fatalf("after partial flush Dirty = %d, want 1 (failed frame stays dirty)", got)
	}
	// A retry with the injection disarmed completes the flush.
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := bp.Dirty(); got != 0 {
		t.Fatalf("after retry Dirty = %d", got)
	}
	// Every page is durable on the disk.
	for i := int32(0); i < 4; i++ {
		var p Page
		if err := d.ReadPage(PageID{File: f, No: i}, &p); err != nil {
			t.Fatal(err)
		}
		if rows := pageRows(t, &p); len(rows) != 1 || rows[0][0].AsInt() != int64(i) {
			t.Fatalf("page %d: %v", i, rows)
		}
	}
}

func TestDropFileInvalidateInteraction(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 8)
	h := NewHeapFile(bp)
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(tup(i, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if bp.CachedPages(h.File()) == 0 {
		t.Fatal("no pages cached before drop")
	}
	h.Drop()
	if n := bp.CachedPages(h.File()); n != 0 {
		t.Fatalf("%d frames survived Invalidate", n)
	}
	if d.hasFile(h.File()) {
		t.Fatal("file survived DropFile")
	}
	// A new heap file must not see stale frames even if it reuses
	// low page numbers.
	h2 := NewHeapFile(bp)
	if _, err := h2.Insert(tup(1, "fresh")); err != nil {
		t.Fatal(err)
	}
	n := 0
	h2.Scan(nil, func(_ RecordID, tp types.Tuple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("fresh heap scan saw %d tuples", n)
	}
}

// --- heapfile/btree-style iteration over a recovered store ---

func TestHeapFileIterationOverRecoveredStore(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(fd, 16)
	h := NewHeapFile(bp)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(tup(i, fmt.Sprintf("name-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	file := h.File()
	// Abandon without Close (kill -9), recover, reattach.
	fd2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	bp2 := NewBufferPool(fd2, 16)
	h2 := OpenHeapFile(bp2, file)
	if h2.NumPages() != h.NumPages() {
		t.Fatalf("recovered pages %d, want %d", h2.NumPages(), h.NumPages())
	}
	var sum int64
	count := 0
	if err := h2.Scan(nil, func(_ RecordID, tp types.Tuple) bool {
		count++
		sum += tp[0].AsInt()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != n || sum != int64(n)*(n-1)/2 {
		t.Fatalf("recovered scan: count %d sum %d", count, sum)
	}
	// Appends continue on the recovered heap without clobbering.
	if _, err := h2.Insert(tup(n, "appended")); err != nil {
		t.Fatal(err)
	}
	count = 0
	h2.Scan(nil, func(RecordID, types.Tuple) bool { count++; return true })
	if count != n+1 {
		t.Fatalf("after append count = %d", count)
	}
}

func TestRecoverStaleTmpFilesIgnored(t *testing.T) {
	// A crash between tmp write and rename leaves *.tmp litter; recovery
	// must ignore and not trip over it.
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := fd.CreateFile()
	if _, err := fd.AppendPage(f); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"meta.tango.tmp", "wal.log.tmp", "f00000042.pg.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fd2, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !fd2.HasFile(f) || fd2.NumPages(f) != 1 {
		t.Fatal("state lost amid tmp litter")
	}
}

// TestFileDiskTempFileUnlogged: an unlogged file is fully usable while
// the store lives, writes nothing to the WAL or to meta.tango, is gone
// after a restart, and fails every operation once the store is dead.
func TestFileDiskTempFileUnlogged(t *testing.T) {
	dir := t.TempDir()
	fd, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := fd.CreateTempFile()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fd.AppendPage(tmp); err != nil {
			t.Fatal(err)
		}
		if err := fd.WritePage(PageID{File: tmp, No: int32(i)}, pageWithRecord(t, fmt.Sprintf("t%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.Truncate(tmp, 2); err != nil {
		t.Fatal(err)
	}
	if got := readRecord(t, fd, PageID{File: tmp, No: 1}); got != "t1" || fd.NumPages(tmp) != 2 {
		t.Fatalf("temp file reads %q with %d pages, want t1 and 2", got, fd.NumPages(tmp))
	}
	if err := fd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if bytes, records := fd.WALStats(); bytes != 0 || records != 0 {
		t.Errorf("temp file writes reached the WAL: %d bytes, %d records", bytes, records)
	}
	if _, err := os.Stat(dataPath(dir, tmp)); !os.IsNotExist(err) {
		t.Errorf("checkpoint wrote the temp file's data file (stat: %v)", err)
	}
	var dm diskMeta
	if buf, err := os.ReadFile(metaPath(dir)); err != nil || json.Unmarshal(buf, &dm) != nil {
		t.Fatalf("read meta.tango: %v", err)
	}
	if _, ok := dm.Files[tmp]; ok {
		t.Errorf("meta.tango lists the temp file: %v", dm.Files)
	}

	// Kill the store on a logged write: the temp file is then as dead
	// as the rest of it, and no restart finds it.
	fd.SetCrashScript(NewCrashScript(CrashPoint{Target: TargetWAL, Nth: 1, Mode: CrashOmit}))
	fd.CreateFile()
	if err := fd.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync past the crash point: %v", err)
	}
	var p Page
	for op, err := range map[string]error{
		"append":   func() error { _, err := fd.AppendPage(tmp); return err }(),
		"write":    fd.WritePage(PageID{File: tmp, No: 0}, &p),
		"read":     fd.ReadPage(PageID{File: tmp, No: 0}, &p),
		"truncate": fd.Truncate(tmp, 0),
		"create":   func() error { _, err := fd.CreateTempFile(); return err }(),
	} {
		if !errors.Is(err, ErrCrashed) {
			t.Errorf("%s on a dead store: %v, want ErrCrashed", op, err)
		}
	}
	rec, _, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.HasFile(tmp) {
		t.Error("the temp file survived the restart")
	}
}
