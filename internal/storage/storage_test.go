package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/types"
)

func TestPageInsertRecord(t *testing.T) {
	var p Page
	p.Reset()
	if p.NumSlots() != 0 {
		t.Fatalf("fresh page has %d slots", p.NumSlots())
	}
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("")}
	// Empty record is not representable as live (length 0 == deleted);
	// use non-empty records.
	recs[2] = []byte("c")
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Record(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(recs[i]) {
			t.Errorf("slot %d = %q, want %q", s, got, recs[i])
		}
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	p.Reset()
	rec := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	// 8KB page, 1000-byte records + 4-byte slots: expect 8 records.
	if n != 8 {
		t.Errorf("inserted %d records, want 8", n)
	}
	if p.FreeSpace() >= 1000 {
		t.Error("page reports space after ErrPageFull")
	}
}

func TestPageDelete(t *testing.T) {
	var p Page
	p.Reset()
	s, _ := p.Insert([]byte("x"))
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Record(s); err != ErrNoRecord {
		t.Errorf("deleted record read: %v", err)
	}
	if err := p.Delete(99); err != ErrNoRecord {
		t.Errorf("out-of-range delete: %v", err)
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	f := d.CreateFile()
	no, err := d.AppendPage(f)
	if err != nil || no != 0 {
		t.Fatalf("AppendPage: %d, %v", no, err)
	}
	var p Page
	p.Reset()
	if _, err := p.Insert([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	pid := PageID{File: f, No: 0}
	if err := d.WritePage(pid, &p); err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := d.ReadPage(pid, &q); err != nil {
		t.Fatal(err)
	}
	rec, err := q.Record(0)
	if err != nil || string(rec) != "hello" {
		t.Fatalf("round trip: %q, %v", rec, err)
	}
	r, w := d.Stats()
	if r != 1 || w != 2 { // append + write
		t.Errorf("stats = %d reads, %d writes", r, w)
	}
	if err := d.ReadPage(PageID{File: 99, No: 0}, &q); err == nil {
		t.Error("read of missing file should fail")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	d := NewDisk()
	f := d.CreateFile()
	bp := NewBufferPool(d, 2)
	// Create 3 pages each holding a distinct record, exceeding capacity.
	for i := 0; i < 3; i++ {
		pid, p, err := bp.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Insert([]byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(pid)
	}
	// All three pages must read back correctly despite eviction.
	for i := int32(0); i < 3; i++ {
		pid := PageID{File: f, No: i}
		p, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := p.Record(0)
		if err != nil || rec[0] != byte('a'+i) {
			t.Fatalf("page %d: %q, %v", i, rec, err)
		}
		bp.Unpin(pid)
	}
	hits, misses := bp.Stats()
	if misses == 0 {
		t.Error("expected misses after eviction")
	}
	_ = hits
}

func TestBufferPoolPinnedExhaustion(t *testing.T) {
	d := NewDisk()
	f := d.CreateFile()
	bp := NewBufferPool(d, 2)
	pids := make([]PageID, 2)
	for i := range pids {
		pid, _, err := bp.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		pids[i] = pid
	}
	if _, _, err := bp.NewPage(f); err == nil {
		t.Error("pool with all pages pinned should refuse NewPage")
	}
	bp.Unpin(pids[0])
	if _, _, err := bp.NewPage(f); err != nil {
		t.Errorf("after Unpin NewPage should succeed: %v", err)
	}
}

func tup(vals ...interface{}) types.Tuple {
	t := make(types.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = types.Int(int64(x))
		case string:
			t[i] = types.Str(x)
		case float64:
			t[i] = types.Float(x)
		default:
			panic(fmt.Sprintf("tup: %T", v))
		}
	}
	return t
}

func TestHeapFileInsertScan(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 8)
	h := NewHeapFile(bp)
	const n = 5000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(tup(i, fmt.Sprintf("name-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	sum := int64(0)
	err := h.Scan(nil, func(_ RecordID, tp types.Tuple) bool {
		count++
		sum += tp[0].AsInt()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scan saw %d tuples, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if h.NumPages() < 2 {
		t.Error("expected multiple pages for 5000 tuples")
	}
}

func TestHeapFileGetDelete(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4)
	h := NewHeapFile(bp)
	rid, err := h.Insert(tup(7, "seven"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid, nil)
	if err != nil || got[0].AsInt() != 7 || got[1].AsString() != "seven" {
		t.Fatalf("Get: %v, %v", got, err)
	}
	if got, err := h.Get(rid, []int{1}); err != nil || len(got) != 1 || got[0].AsString() != "seven" {
		t.Fatalf("Get of column 1: %v, %v", got, err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid, nil); err == nil {
		t.Error("Get after Delete should fail")
	}
	seen := 0
	h.Scan(nil, func(RecordID, types.Tuple) bool { seen++; return true })
	if seen != 0 {
		t.Errorf("scan after delete saw %d tuples", seen)
	}
}

func TestBulkLoadEqualsInsert(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 8)
	rng := rand.New(rand.NewSource(3))
	var tuples []types.Tuple
	for i := 0; i < 2000; i++ {
		tuples = append(tuples, tup(int(rng.Int63n(1000)), fmt.Sprintf("v%d", i)))
	}
	h1 := NewHeapFile(bp)
	if err := h1.BulkLoad(tuples); err != nil {
		t.Fatal(err)
	}
	h2 := NewHeapFile(bp)
	for _, tp := range tuples {
		if _, err := h2.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	var a, b []int64
	h1.Scan(nil, func(_ RecordID, tp types.Tuple) bool { a = append(a, tp[0].AsInt()); return true })
	h2.Scan(nil, func(_ RecordID, tp types.Tuple) bool { b = append(b, tp[0].AsInt()); return true })
	if len(a) != len(tuples) || len(b) != len(tuples) {
		t.Fatalf("lengths: %d, %d, want %d", len(a), len(b), len(tuples))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %d vs %d", i, a[i], b[i])
		}
	}
	// Bulk load should not use more pages than insert path.
	if h1.NumPages() > h2.NumPages() {
		t.Errorf("bulk load used %d pages, insert %d", h1.NumPages(), h2.NumPages())
	}
}

func TestHeapFileDrop(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4)
	h := NewHeapFile(bp)
	h.Insert(tup(1, "x"))
	h.Drop()
	if err := h.Scan(nil, func(RecordID, types.Tuple) bool { return true }); err != nil {
		// Scan over a dropped file sees zero pages; either nil error with
		// no tuples or an error is acceptable, but it must not panic.
		t.Logf("scan after drop: %v", err)
	}
}

func TestPageTuplesMatchesScan(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 8)
	h := NewHeapFile(bp)
	const n = 3000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(tup(i, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var viaScan []int64
	h.Scan(nil, func(_ RecordID, tp types.Tuple) bool {
		viaScan = append(viaScan, tp[0].AsInt())
		return true
	})
	var viaPages []int64
	for p := int32(0); int(p) < h.NumPages(); p++ {
		tuples, err := h.PageTuples(p, -1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			viaPages = append(viaPages, tp[0].AsInt())
		}
	}
	if len(viaScan) != len(viaPages) {
		t.Fatalf("lengths: %d vs %d", len(viaScan), len(viaPages))
	}
	for i := range viaScan {
		if viaScan[i] != viaPages[i] {
			t.Fatalf("row %d: %d vs %d", i, viaScan[i], viaPages[i])
		}
	}
	// Deleted tuples are skipped by both paths.
	if err := h.Delete(RecordID{Page: 0, Slot: 0}); err != nil {
		t.Fatal(err)
	}
	tuples, err := h.PageTuples(0, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if tp[0].AsInt() == 0 {
			t.Fatal("deleted tuple still visible")
		}
	}
}

// positionHeap bulk-loads n POSITION-shaped rows (three strings, a
// float, four integers) into a fresh in-memory heap file.
func positionHeap(tb testing.TB, n int) *HeapFile {
	tb.Helper()
	h := NewHeapFile(NewBufferPool(NewDisk(), 128)) // 12k rows fit: scans stay warm
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = tup(i, i%97, fmt.Sprintf("Employee %d", i), "Dept", 12.5, "Title", 9000+i, 9100+i)
	}
	if err := h.BulkLoad(rows); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestPageTuplesOutlivePage: decoded rows own their strings; the frame
// they were read from may be evicted and reused at once.
func TestPageTuplesOutlivePage(t *testing.T) {
	h := positionHeap(t, 200)
	rows, err := h.PageTuples(0, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, ref, err := h.pool.FetchExclusive(PageID{File: h.file, No: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.buf {
		p.buf[i] = 0xff
	}
	ref.Release()
	for i, r := range rows {
		if got, want := r[2].AsString(), fmt.Sprintf("Employee %d", i); got != want {
			t.Fatalf("row %d reads %q after its page was overwritten, want %q", i, got, want)
		}
		if r[3].AsString() != "Dept" || r[4].AsFloat() != 12.5 || r[7].AsInt() != int64(9100+i) {
			t.Fatalf("row %d damaged: %v", i, r)
		}
	}
}

// BenchmarkHeapScanDecode is the storage layer's share of a table
// scan: every page of a 12k-row POSITION-shaped heap, fetched from a
// warm pool and decoded keeping no column (COUNT(*)), three (PosID,
// EmpName, PayRate: a filter's) or all eight.
func BenchmarkHeapScanDecode(b *testing.B) {
	const n = 12000
	h := positionHeap(b, n)
	pages := int32(h.NumPages())
	for _, bc := range []struct {
		name string
		cols []int
	}{
		{"cols=0", []int{}},
		{"cols=3", []int{0, 2, 4}},
		{"cols=8", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var buf []types.Tuple
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for p := int32(0); p < pages; p++ {
					var err error
					if buf, err = h.PageTuples(p, -1, bc.cols, buf[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
