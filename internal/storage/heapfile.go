package storage

import (
	"tango/internal/types"
)

// HeapFile stores tuples of one table in a sequence of pages, each one
// block of the shared block codec, accessed through a buffer pool.
type HeapFile struct {
	pool *BufferPool
	file FileID
	// lastPage caches the page number with free space for appends; -1
	// when unknown/empty.
	lastPage int32
	// blk is where Insert builds the tail's next block. Like lastPage it
	// belongs to the file's one writer: callers serialize Insert,
	// BulkLoad and Truncate.
	blk []byte
}

// RecordID locates one tuple within a heap file: its page, and its row
// index in that page's block.
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
// re-encoded with the tuple appended under its exclusive content latch:
// snapshot readers whose visibility bound ends on that page read it
// under the shared latch, so a half-written block is never observed,
// and the rows before the new one keep their slots. A tuple that keeps
// the tail's column tags is spliced into its block's bytes
// (types.AppendRow); only one that changes a tag (a column's first NULL
// or first value of a second kind) makes the page's rows be decoded and
// encoded again. A tuple that does not join the tail's block (another
// arity, or no room) starts a fresh page, which needs no latch — it
// lies beyond every published bound until the caller's commit
// publishes a new one. A tuple too large for any page fails with
// ErrPageFull before a page is allocated.
func (h *HeapFile) Insert(t types.Tuple) (RecordID, error) {
	if h.lastPage >= 0 {
		pid := PageID{File: h.file, No: h.lastPage}
		p, ref, err := h.pool.FetchExclusive(pid)
		if err != nil {
			return RecordID{}, err
		}
		var n, old int
		if h.blk, n, old = types.AppendRow(h.blk[:0], p.buf[:], t); n == 0 {
			var rows []types.Tuple
			if rows, old, err = types.DecodeBlock(nil, nil, p.buf[:], nil, 0, -1); err == nil {
				rows = append(rows, t)
				if h.blk, n = types.AppendBlock(h.blk[:0], rows); n < len(rows) {
					n = 0
				}
			}
		}
		if n > 0 && p.setBlock(h.blk, old) == nil {
			ref.Release()
			return RecordID{Page: pid.No, Slot: int32(n - 1)}, nil
		}
		ref.Release()
		if err != nil {
			return RecordID{}, err
		}
	}
	if h.blk, _ = types.AppendBlock(h.blk[:0], []types.Tuple{t}); len(h.blk) > PageSize {
		return RecordID{}, ErrPageFull
	}
	pid, p, err := h.pool.NewPage(h.file)
	if err != nil {
		return RecordID{}, err
	}
	err = p.setBlock(h.blk, 0)
	h.pool.Unpin(pid)
	if err != nil {
		return RecordID{}, err
	}
	h.lastPage = pid.No
	return RecordID{Page: pid.No, Slot: 0}, nil
}

// Get appends to dst the tuples at rids, which must all lie on one
// page, keeping the columns at positions cols (ascending; nil keeps
// every column), decoded into a (nil: fresh memory). The page is
// visited once for them all, and each run of consecutive slots is
// decoded in one pass, reaching its rows through the block's column
// offsets.
func (h *HeapFile) Get(rids []RecordID, cols []int, dst []types.Tuple, a *types.Arena) ([]types.Tuple, error) {
	if len(rids) == 0 {
		return dst, nil
	}
	p, ref, err := h.pool.FetchShared(PageID{File: h.file, No: rids[0].Page})
	if err != nil {
		return dst, err
	}
	defer ref.Release()
	for i := 0; i < len(rids); {
		j := i + 1
		for j < len(rids) && rids[j].Slot == rids[j-1].Slot+1 {
			j++
		}
		lo, n := rids[i].Slot, len(dst)
		if lo < 0 {
			return dst, ErrNoRecord
		}
		if dst, _, err = types.DecodeBlock(dst, a, p.buf[:], cols, int(lo), int(lo)+j-i); err != nil {
			return dst, err
		}
		if len(dst)-n < j-i {
			return dst, ErrNoRecord
		}
		i = j
	}
	return dst, nil
}

// Drop releases the file's pages.
func (h *HeapFile) Drop() {
	h.pool.Invalidate(h.file, 0)
	h.pool.disk.DropFile(h.file)
}

// Truncate cuts the file back to its first pages pages, discarding any
// cached frame past them — how a failed bulk load rolls back. On a
// FileDisk the cut also ends the file's open load (see FileDisk.Truncate).
func (h *HeapFile) Truncate(pages int) error {
	h.pool.Invalidate(h.file, int32(pages))
	if err := h.pool.disk.Truncate(h.file, pages); err != nil {
		return err
	}
	h.lastPage = int32(pages) - 1
	return nil
}

// Scan iterates over every tuple in the file in storage order, calling
// fn with the record ID and the tuple's columns at positions cols
// (ascending; nil keeps every column). fn returning false stops the
// scan early. Each page is decoded under its shared content latch and
// the latch released before fn runs, so callbacks may acquire other
// locks (index builds) without entering the latch hierarchy.
func (h *HeapFile) Scan(cols []int, fn func(RecordID, types.Tuple) bool) error {
	n := h.NumPages()
	var (
		tuples []types.Tuple
		err    error
	)
	for pageNo := int32(0); pageNo < int32(n); pageNo++ {
		tuples, err = h.PageTuples(pageNo, -1, cols, tuples[:0], nil)
		if err != nil {
			return err
		}
		for i, t := range tuples {
			if !fn(RecordID{Page: pageNo, Slot: int32(i)}, t) {
				return nil
			}
		}
	}
	return nil
}

// PageTuples decodes the tuples of one page up to (excluding) slot
// maxSlots, keeping the columns at positions cols (ascending; nil keeps
// every column) and only the tuples passing every conjunct of where,
// into a (nil: fresh memory), and appends them to dst; maxSlots < 0
// means every slot. It lets scans
// stream page-at-a-time instead of materializing the whole table, and
// snapshot scans use the slot cap to stop a tail page at the reader's
// visibility bound. The page is read under its shared content latch and
// decoded in one validating pass (types.DecodeBlock), which tests the
// conjuncts on the slots below the cap before decoding the passing
// tuples: the tuples do not alias the page buffer.
func (h *HeapFile) PageTuples(pageNo int32, maxSlots int, cols []int, dst []types.Tuple, a *types.Arena, where ...types.Conjunct) ([]types.Tuple, error) {
	p, ref, err := h.pool.FetchShared(PageID{File: h.file, No: pageNo})
	if err != nil {
		return dst, err
	}
	defer ref.Release()
	dst, _, err = types.DecodeBlock(dst, a, p.buf[:], cols, 0, maxSlots, where...)
	return dst, err
}

// Bound reports the file's current visibility bound: the page count
// and the number of slots on the last page. A snapshot publishing
// (pages, tailSlots) makes exactly the rows existing now visible —
// later appends land past the bound (pages fill strictly in order, an
// append keeps the slots before it, and sealed pages never gain slots).
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
	rows, _, _, _ := types.BlockLen(p.buf[:])
	return n, int32(rows)
}

// BulkLoad appends all tuples from the slice using a direct page-fill
// path: each fresh page takes as many rows as its block holds within
// PageSize — sized from per-column statistics as rows are added, not by
// trial encodes — modelling the paper's SQL*Loader direct-path load into
// an exactly-sized initial extent. A tuple too large for a page fails
// the load with ErrPageFull; the pages filled before it stay in the
// file for the caller to roll back (Truncate).
func (h *HeapFile) BulkLoad(tuples []types.Tuple) error {
	var (
		s   types.BlockSizer
		blk []byte
	)
	for len(tuples) > 0 {
		s.Reset()
		n := 0
		for n < len(tuples) && s.Add(tuples[n]) && s.Size() <= PageSize {
			n++
		}
		if n == 0 {
			return ErrPageFull
		}
		blk, _ = types.AppendBlock(blk[:0], tuples[:n])
		pid, p, err := h.pool.NewPage(h.file)
		if err != nil {
			return err
		}
		err = p.setBlock(blk, 0)
		h.pool.Unpin(pid)
		if err != nil {
			return err
		}
		h.lastPage = pid.No
		tuples = tuples[n:]
	}
	return nil
}
