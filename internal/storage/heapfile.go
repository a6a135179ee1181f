package storage

import (
	"slices"

	"tango/internal/types"
)

// HeapFile stores tuples of one table in a sequence of slotted pages
// accessed through a buffer pool. Records are encoded with the shared
// tuple codec.
type HeapFile struct {
	pool *BufferPool
	file FileID
	// lastPage caches the page number with free space for appends; -1
	// when unknown/empty.
	lastPage int32
}

// RecordID locates one tuple within a heap file.
type RecordID struct {
	Page int32
	Slot int32
}

// NewHeapFile creates an empty heap file on the pool's store.
func NewHeapFile(pool *BufferPool) *HeapFile {
	return &HeapFile{pool: pool, file: pool.disk.CreateFile(), lastPage: -1}
}

// OpenHeapFile attaches to an existing file on the pool's store —
// the recovery path, where the file's pages were restored by the WAL
// redo pass and the catalog remembers which file holds which table.
func OpenHeapFile(pool *BufferPool, file FileID) *HeapFile {
	h := &HeapFile{pool: pool, file: file, lastPage: -1}
	if n := pool.disk.NumPages(file); n > 0 {
		h.lastPage = int32(n - 1)
	}
	return h
}

// File returns the underlying file ID.
func (h *HeapFile) File() FileID { return h.file }

// NumPages returns the block count of the file — the paper's blocks(r)
// statistic.
func (h *HeapFile) NumPages() int { return h.pool.disk.NumPages(h.file) }

// Insert appends a tuple and returns its record ID. The tail page is
// mutated under its exclusive content latch: snapshot readers whose
// visibility bound ends on that page read it under the shared latch,
// so a half-inserted record is never observed. A fresh page needs no
// latch — it lies beyond every published bound until the caller's
// commit publishes a new one.
func (h *HeapFile) Insert(t types.Tuple) (RecordID, error) {
	rec := types.EncodeTuple(nil, t)
	// Try the cached last page first.
	if h.lastPage >= 0 {
		pid := PageID{File: h.file, No: h.lastPage}
		p, ref, err := h.pool.FetchExclusive(pid)
		if err != nil {
			return RecordID{}, err
		}
		slot, err := p.Insert(rec)
		ref.Release()
		if err == nil {
			return RecordID{Page: pid.No, Slot: int32(slot)}, nil
		}
		if err != ErrPageFull {
			return RecordID{}, err
		}
	}
	pid, p, err := h.pool.NewPage(h.file)
	if err != nil {
		return RecordID{}, err
	}
	slot, err := p.Insert(rec)
	h.pool.Unpin(pid)
	if err != nil {
		return RecordID{}, err // record larger than a page
	}
	h.lastPage = pid.No
	return RecordID{Page: pid.No, Slot: int32(slot)}, nil
}

// Get reads the tuple at the given record ID, keeping the columns at
// positions cols (ascending; nil keeps every column).
func (h *HeapFile) Get(rid RecordID, cols []int) (types.Tuple, error) {
	pid := PageID{File: h.file, No: rid.Page}
	p, ref, err := h.pool.FetchShared(pid)
	if err != nil {
		return nil, err
	}
	defer ref.Release()
	rec, err := p.Record(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	t, _, err := types.DecodeColumns(rec, cols)
	return t, err
}

// Delete removes the tuple at the given record ID.
func (h *HeapFile) Delete(rid RecordID) error {
	pid := PageID{File: h.file, No: rid.Page}
	p, ref, err := h.pool.FetchExclusive(pid)
	if err != nil {
		return err
	}
	defer ref.Release()
	return p.Delete(int(rid.Slot))
}

// Drop releases the file's pages.
func (h *HeapFile) Drop() {
	h.pool.Invalidate(h.file)
	h.pool.disk.DropFile(h.file)
}

// Scan iterates over every live tuple in the file in storage order,
// calling fn with the record ID and the tuple's columns at positions
// cols (ascending; nil keeps every column). fn returning false stops
// the scan early. Each page is decoded under its shared content latch
// and the latch released before fn runs, so callbacks may acquire
// other locks (index builds) without entering the latch hierarchy.
func (h *HeapFile) Scan(cols []int, fn func(RecordID, types.Tuple) bool) error {
	n := h.NumPages()
	var (
		rids   []RecordID
		tuples []types.Tuple
		err    error
	)
	for pageNo := int32(0); pageNo < int32(n); pageNo++ {
		rids = rids[:0]
		tuples, err = h.pageTuples(pageNo, -1, cols, tuples[:0], &rids)
		if err != nil {
			return err
		}
		for i, t := range tuples {
			if !fn(rids[i], t) {
				return nil
			}
		}
	}
	return nil
}

// PageTuples decodes the live tuples of one page up to (excluding)
// slot maxSlots, keeping the columns at positions cols (ascending; nil
// keeps every column), and appends them to dst; maxSlots < 0 means
// every slot. It lets scans stream page-at-a-time instead of
// materializing the whole table, and snapshot scans use the slot cap
// to stop a tail page at the reader's visibility bound. The page is
// read under its shared content latch and decoded in one validating
// pass (types.Decoder): the tuples do not alias the page buffer.
func (h *HeapFile) PageTuples(pageNo int32, maxSlots int, cols []int, dst []types.Tuple) ([]types.Tuple, error) {
	return h.pageTuples(pageNo, maxSlots, cols, dst, nil)
}

// pageTuples is PageTuples that also appends each tuple's record ID
// to *rids when rids is non-nil.
func (h *HeapFile) pageTuples(pageNo int32, maxSlots int, cols []int, dst []types.Tuple, rids *[]RecordID) ([]types.Tuple, error) {
	pid := PageID{File: h.file, No: pageNo}
	p, ref, err := h.pool.FetchShared(pid)
	if err != nil {
		return dst, err
	}
	defer ref.Release()
	slots := p.NumSlots()
	if maxSlots >= 0 && maxSlots < slots {
		slots = maxSlots
	}
	live := 0
	for s := range slots {
		if _, err := p.Record(s); err == nil {
			live++
		}
	}
	d := types.NewDecoder(live, cols)
	start := len(dst)
	dst = slices.Grow(dst, live)
	for s := range slots {
		rec, err := p.Record(s)
		if err != nil {
			continue
		}
		t, _, err := d.Decode(rec)
		if err != nil {
			return dst[:start], err
		}
		dst = append(dst, t)
		if rids != nil {
			*rids = append(*rids, RecordID{Page: pageNo, Slot: int32(s)})
		}
	}
	d.Own(dst[start:])
	return dst, nil
}

// Bound reports the file's current visibility bound: the page count
// and the number of slots on the last page. A snapshot publishing
// (pages, tailSlots) makes exactly the rows existing now visible —
// later appends land past the bound (pages fill strictly in order and
// sealed pages never gain slots).
func (h *HeapFile) Bound() (pages, tailSlots int32) {
	n := int32(h.NumPages())
	if n == 0 {
		return 0, 0
	}
	pid := PageID{File: h.file, No: n - 1}
	p, ref, err := h.pool.FetchShared(pid)
	if err != nil {
		return n, 0
	}
	defer ref.Release()
	return n, int32(p.NumSlots())
}

// BulkLoad appends all tuples from the slice using a direct page-fill
// path: pages are filled to capacity with no free space left behind,
// modelling the paper's SQL*Loader direct-path load into an
// exactly-sized initial extent.
func (h *HeapFile) BulkLoad(tuples []types.Tuple) error {
	var (
		pid PageID
		p   *Page
		err error
	)
	buf := make([]byte, 0, 512)
	for _, t := range tuples {
		buf = types.EncodeTuple(buf[:0], t)
		if p != nil {
			if _, err := p.Insert(buf); err == nil {
				continue
			} else if err != ErrPageFull {
				h.pool.Unpin(pid)
				return err
			}
			h.pool.Unpin(pid)
		}
		pid, p, err = h.pool.NewPage(h.file)
		if err != nil {
			return err
		}
		if _, err := p.Insert(buf); err != nil {
			h.pool.Unpin(pid)
			return err
		}
	}
	if p != nil {
		h.pool.Unpin(pid)
		h.lastPage = pid.No
	}
	return nil
}
