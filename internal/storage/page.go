// Package storage implements the simulated disk under the DBMS engine:
// fixed-size pages each holding one columnar block of rows, heap files
// of pages, and an LRU buffer pool with I/O accounting. The "disk" is an
// in-memory page store whose read and write counters drive the engine's
// cost behaviour; it stands in for the paper's Oracle storage layer.
package storage

import "errors"

// PageSize is the size of every page in bytes (8 KB, a common DBMS
// block size; the paper's block-count statistics are in these units).
const PageSize = 8192

// PageID identifies a page within a file.
type PageID struct {
	File FileID
	No   int32
}

// FileID identifies a heap file on the disk.
type FileID int32

// Page holds one block (types.AppendBlock) at its front and zero bytes
// after it: its rows stored column by column. A row's slot is its index
// in the block. A zero page is an empty block, so a freshly appended
// page holds no rows.
type Page struct {
	buf   [PageSize]byte
	dirty bool
}

var (
	// ErrPageFull is returned when a block does not fit in a page.
	ErrPageFull = errors.New("storage: page full")
	// ErrNoRecord is returned for an out-of-range slot.
	ErrNoRecord = errors.New("storage: no such record")
)

// setBlock replaces the page's block, which takes its first old bytes
// (0 on a fresh page, PageSize when unknown), with block. Only the old
// block's bytes past the new one are cleared, not the whole rest of the
// page: that clear was a third of an INSERT's heap-file CPU.
func (p *Page) setBlock(block []byte, old int) error {
	if len(block) > PageSize {
		return ErrPageFull
	}
	n := copy(p.buf[:], block)
	clear(p.buf[n:max(n, old)])
	p.dirty = true
	return nil
}
