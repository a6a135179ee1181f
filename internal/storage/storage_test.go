package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tango/internal/types"
)

// pageOf returns a page holding one block of rows.
func pageOf(t testing.TB, rows ...types.Tuple) *Page {
	t.Helper()
	var p Page
	blk, _ := types.AppendBlock(nil, rows)
	if err := p.setBlock(blk, PageSize); err != nil {
		t.Fatal(err)
	}
	return &p
}

// pageRows decodes every row of the page.
func pageRows(t testing.TB, p *Page) []types.Tuple {
	t.Helper()
	rows, _, err := types.DecodeBlock(nil, nil, p.buf[:], nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPageInsertRecord(t *testing.T) {
	var p Page
	if n := len(pageRows(t, &p)); n != 0 {
		t.Fatalf("fresh page has %d rows", n)
	}
	recs := []types.Tuple{tup(1, "alpha"), tup(2, "beta"), tup(3, "")}
	q := pageOf(t, recs...)
	got := pageRows(t, q)
	if len(got) != len(recs) {
		t.Fatalf("page has %d rows, want %d", len(got), len(recs))
	}
	for i, got := range got {
		if !types.TupleEqualOn(got, recs[i], []int{0, 1}) {
			t.Errorf("slot %d = %v, want %v", i, got, recs[i])
		}
	}
}

func TestPageFull(t *testing.T) {
	var p Page
	n := 0
	var rows []types.Tuple
	for {
		rows = append(rows, tup(n, string(make([]byte, 1000))))
		blk, _ := types.AppendBlock(nil, rows)
		if err := p.setBlock(blk, PageSize); err != nil {
			if err != ErrPageFull {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	// 8KB page, 1000-byte strings plus a few bytes of columns: 8 rows.
	if held := len(pageRows(t, &p)); n != 8 || held != 8 {
		t.Errorf("page took %d rows and holds %d, want 8", n, held)
	}
}

func TestDiskReadWrite(t *testing.T) {
	d := NewDisk()
	f := d.CreateFile()
	no, err := d.AppendPage(f)
	if err != nil || no != 0 {
		t.Fatalf("AppendPage: %d, %v", no, err)
	}
	p := pageOf(t, tup("hello"))
	pid := PageID{File: f, No: 0}
	if err := d.WritePage(pid, p); err != nil {
		t.Fatal(err)
	}
	var q Page
	if err := d.ReadPage(pid, &q); err != nil {
		t.Fatal(err)
	}
	if rows := pageRows(t, &q); len(rows) != 1 || rows[0][0].AsString() != "hello" {
		t.Fatalf("round trip: %v", rows)
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
	// Create 3 pages each holding a distinct row, exceeding capacity.
	for i := 0; i < 3; i++ {
		pid, p, err := bp.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		*p = *pageOf(t, tup(i))
		bp.Unpin(pid)
	}
	// All three pages must read back correctly despite eviction.
	for i := int32(0); i < 3; i++ {
		pid := PageID{File: f, No: i}
		p, err := bp.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		if rows := pageRows(t, p); len(rows) != 1 || rows[0][0].AsInt() != int64(i) {
			t.Fatalf("page %d: %v", i, rows)
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

// TestBufferPoolConcurrentReuse: readers scanning a heap larger than
// the pool, a writer whose dirty pages are written back through spare
// frames, and FlushAll all share one small pool, so frames are evicted
// and reused under them; no reader ever sees another page's rows, and
// no write is lost.
func TestBufferPoolConcurrentReuse(t *testing.T) {
	h := positionHeap(t, 4000)
	if err := h.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	pool := NewBufferPool(h.pool.disk, 8)
	h.pool = pool
	pages := int32(h.NumPages())
	w := NewHeapFile(pool)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rows []types.Tuple
			for scan := 0; scan < 5; scan++ {
				next := int64(0)
				for p := int32(0); p < pages; p++ {
					var err error
					if rows, err = h.PageTuples(p, -1, []int{0}, rows[:0], nil); err != nil {
						t.Error(err)
						return
					}
					for _, row := range rows {
						if row[0].AsInt() != next {
							t.Errorf("page %d: PosID %d, want %d", p, row[0].AsInt(), next)
							return
						}
						next++
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			if _, err := w.Insert(tup(i, fmt.Sprintf("row %d", i))); err != nil {
				t.Error(err)
				return
			}
			if i%500 == 0 {
				if err := pool.FlushAll(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	next := int64(0)
	if err := w.Scan(nil, func(_ RecordID, row types.Tuple) bool {
		if row[0].AsInt() != next || row[1].AsString() != fmt.Sprintf("row %d", next) {
			t.Errorf("written row %d reads back as %v", next, row)
			return false
		}
		next++
		return true
	}); err != nil || next != 3000 {
		t.Errorf("read back %d of 3000 written rows, err %v", next, err)
	}
	if n := pool.Pinned(); n != 0 {
		t.Errorf("%d pins left", n)
	}
}

func TestHeapFileGet(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 4)
	h := NewHeapFile(bp)
	var rids []RecordID
	for i := 0; i < 500; i++ {
		rid, err := h.Insert(tup(i, fmt.Sprintf("name-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := h.Get(rids[i:i+1], nil, nil, nil)
		if err != nil || len(got) != 1 || got[0][0].AsInt() != int64(i) || got[0][1].AsString() != fmt.Sprintf("name-%d", i) {
			t.Fatalf("Get(%v): %v, %v", rid, got, err)
		}
		if got, err := h.Get(rids[i:i+1], []int{1}, nil, nil); err != nil || len(got) != 1 || len(got[0]) != 1 ||
			got[0][0].AsString() != fmt.Sprintf("name-%d", i) {
			t.Fatalf("Get of column 1 of %v: %v, %v", rid, got, err)
		}
	}
	// Several records of one page, in runs of consecutive slots and not.
	var onPage []RecordID
	for _, rid := range rids {
		if rid.Page == 0 && (rid.Slot < 5 || rid.Slot%7 == 3 || rid.Slot == 40) {
			onPage = append(onPage, rid)
		}
	}
	got, err := h.Get(onPage, []int{0}, nil, nil)
	if err != nil || len(got) != len(onPage) {
		t.Fatalf("Get of %d records of page 0: %d rows, %v", len(onPage), len(got), err)
	}
	for k, rid := range onPage {
		if got[k][0].AsInt() != int64(rid.Slot) {
			t.Errorf("Get of %v: row %v", rid, got[k])
		}
	}
	last := rids[len(rids)-1]
	for _, bad := range [][]RecordID{
		{{Page: last.Page, Slot: last.Slot + 1}},
		{{Page: 0, Slot: -1}},
		{last, {Page: last.Page, Slot: last.Slot + 1}},
	} {
		if _, err := h.Get(bad, nil, nil, nil); !errors.Is(err, ErrNoRecord) {
			t.Errorf("Get(%v) past the rows: %v, want ErrNoRecord", bad, err)
		}
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
		tuples, err := h.PageTuples(p, -1, nil, nil, nil)
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

// employeeHeap bulk-loads n rows shaped like the 31-column EMPLOYEE
// relation — an integer key, seven strings, two dates, then 21 filler
// attributes, every third an integer — into a fresh in-memory heap.
func employeeHeap(tb testing.TB, n int) *HeapFile {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([]types.Tuple, n)
	for i := range rows {
		name := fmt.Sprintf("Name%d Last%d", rng.Intn(28), rng.Intn(14))
		r := types.Tuple{
			types.Int(int64(i + 1)), types.Str(name),
			types.Str(fmt.Sprintf("%d Street%d St", 1+rng.Intn(9999), rng.Intn(14))),
			types.Str(fmt.Sprintf("City%d", rng.Intn(6))), types.Str("AZ"),
			types.Str(fmt.Sprintf("%05d", rng.Intn(99999))),
			types.Str(fmt.Sprintf("(520) %03d-%04d", rng.Intn(1000), rng.Intn(10000))),
			types.Str(fmt.Sprintf("%s.%d@uis.edu", name, i+1)),
			types.Date(int64(-10000 + rng.Intn(14000))), types.Date(int64(2000 + rng.Intn(8000))),
		}
		for c := 1; c <= 21; c++ {
			if c%3 == 0 {
				r = append(r, types.Int(rng.Int63n(100000)))
			} else {
				r = append(r, types.Str(fmt.Sprintf("%08x", rng.Uint32())))
			}
		}
		rows[i] = r
	}
	h := NewHeapFile(NewBufferPool(NewDisk(), 512))
	if err := h.BulkLoad(rows); err != nil {
		tb.Fatal(err)
	}
	return h
}

// TestPageTuplesOutlivePage: decoded rows own their strings; the frame
// they were read from may be evicted and reused at once.
func TestPageTuplesOutlivePage(t *testing.T) {
	h := positionHeap(t, 200)
	rows, err := h.PageTuples(0, -1, nil, nil, nil)
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
// EmpName, PayRate: a filter's), four (PosID, EmpName, T1, T2: a sorted
// scan's) or all eight; and of a 4k-row heap of 31-column EMPLOYEE rows
// keeping the three a join reads (EmpID, EmpName, Addr).
func BenchmarkHeapScanDecode(b *testing.B) {
	pos := positionHeap(b, 12000)
	emp := employeeHeap(b, 4000)
	for _, bc := range []struct {
		name string
		h    *HeapFile
		rows int
		cols []int
	}{
		{"cols=0", pos, 12000, []int{}},
		{"cols=3", pos, 12000, []int{0, 2, 4}},
		{"cols=4", pos, 12000, []int{0, 2, 6, 7}},
		{"cols=8", pos, 12000, nil},
		{"emp31/cols=3", emp, 4000, []int{0, 1, 2}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var (
				buf []types.Tuple
				a   types.Arena
			)
			pages := int32(bc.h.NumPages())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for p := int32(0); p < pages; p++ {
					var err error
					a.Reset() // as a scan does for each page
					if buf, err = bc.h.PageTuples(p, -1, bc.cols, buf[:0], &a); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(bc.rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
