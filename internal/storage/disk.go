package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Disk is the simulated block device: a set of files, each a vector of
// raw pages. Reads and writes are counted so the engine and the
// experiments can report I/O work. Access is goroutine-safe; the I/O
// counters are atomic so concurrent queries can snapshot them without
// taking the disk lock.
type Disk struct {
	mu     sync.Mutex //tango:lock-order memstore latch
	files  map[FileID][][]byte
	nextID FileID

	reads  atomic.Int64
	writes atomic.Int64

	// failure injection for tests: when failReads/failWrites reaches
	// zero on a countdown, the operation fails.
	failReads  int64
	failWrites int64
}

// FailReadsAfter makes the n+1-th subsequent read fail (n=0 fails the
// next read). Negative disables injection.
func (d *Disk) FailReadsAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failReads = n + 1
}

// FailWritesAfter makes the n+1-th subsequent write fail.
func (d *Disk) FailWritesAfter(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failWrites = n + 1
}

var (
	// ErrInjectedRead is returned by injected read failures.
	ErrInjectedRead = fmt.Errorf("storage: injected read failure")
	// ErrInjectedWrite is returned by injected write failures.
	ErrInjectedWrite = fmt.Errorf("storage: injected write failure")
)

// NewDisk creates an empty disk.
func NewDisk() *Disk {
	return &Disk{files: map[FileID][][]byte{}}
}

// CreateFile allocates a new empty file.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextID++
	id := d.nextID
	d.files[id] = nil
	return id
}

// DropFile removes a file and its pages.
func (d *Disk) DropFile(id FileID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, id)
}

// NumPages returns the number of pages in the file.
func (d *Disk) NumPages(id FileID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.files[id])
}

// AppendPage grows the file by one zero page and returns its number.
func (d *Disk) AppendPage(id FileID) (int32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[id]
	if !ok {
		return 0, fmt.Errorf("storage: no file %d", id)
	}
	d.files[id] = append(pages, make([]byte, PageSize))
	d.writes.Add(1)
	return int32(len(pages)), nil
}

// Truncate cuts the file back to its first pages pages.
func (d *Disk) Truncate(id FileID, pages int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.files[id]
	if !ok || pages < 0 {
		return fmt.Errorf("storage: truncate of missing file %d to %d pages", id, pages)
	}
	d.files[id] = p[:min(pages, len(p))]
	return nil
}

// ReadPage copies the page into dst.
func (d *Disk) ReadPage(pid PageID, dst *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failReads > 0 {
		d.failReads--
		if d.failReads == 0 {
			return ErrInjectedRead
		}
	}
	pages, ok := d.files[pid.File]
	if !ok || int(pid.No) >= len(pages) || pid.No < 0 {
		return fmt.Errorf("storage: read of missing page %v", pid)
	}
	copy(dst.buf[:], pages[pid.No])
	dst.dirty = false
	d.reads.Add(1)
	return nil
}

// WritePage copies the page back to the device.
func (d *Disk) WritePage(pid PageID, src *Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failWrites > 0 {
		d.failWrites--
		if d.failWrites == 0 {
			return ErrInjectedWrite
		}
	}
	pages, ok := d.files[pid.File]
	if !ok || int(pid.No) >= len(pages) || pid.No < 0 {
		return fmt.Errorf("storage: write of missing page %v", pid)
	}
	copy(pages[pid.No], src.buf[:])
	d.writes.Add(1)
	return nil
}

// hasFile reports whether the file exists.
func (d *Disk) hasFile(id FileID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[id]
	return ok
}

// pageCopy returns a copy of the page's bytes, or false if the file or
// page is gone. It does not count as a read (it serves checkpoints,
// not queries).
func (d *Disk) pageCopy(pid PageID) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[pid.File]
	if !ok || pid.No < 0 || int(pid.No) >= len(pages) {
		return nil, false
	}
	out := make([]byte, PageSize)
	copy(out, pages[pid.No])
	return out, true
}

// fileSizes snapshots the page count of every file.
func (d *Disk) fileSizes() map[FileID]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[FileID]int, len(d.files))
	for id, pages := range d.files {
		out[id] = len(pages)
	}
	return out
}

// lastFileID returns the highest file ID ever allocated.
func (d *Disk) lastFileID() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextID
}

// Sync is the durability barrier. The in-memory disk is volatile by
// design (it stands in for a remote DBMS's storage in benchmarks), so
// Sync is a no-op.
func (d *Disk) Sync() error { return nil }

// Close releases the disk. No-op for the in-memory store.
func (d *Disk) Close() error { return nil }

// Stats returns the cumulative read and write counts.
func (d *Disk) Stats() (reads, writes int64) {
	return d.reads.Load(), d.writes.Load()
}

// IOStats is an atomic snapshot of the disk's cumulative I/O counters.
type IOStats struct {
	Reads  int64
	Writes int64
}

// Snapshot returns the current I/O counters without taking the disk
// lock, so per-query deltas can be computed while other queries run.
func (d *Disk) Snapshot() IOStats {
	return IOStats{Reads: d.reads.Load(), Writes: d.writes.Load()}
}

// Sub returns the delta s - base (the I/O performed between two
// snapshots).
func (s IOStats) Sub(base IOStats) IOStats {
	return IOStats{Reads: s.Reads - base.Reads, Writes: s.Writes - base.Writes}
}

// ResetStats zeroes the I/O counters.
func (d *Disk) ResetStats() {
	d.reads.Store(0)
	d.writes.Store(0)
}
