package storage

// Store is the block-device contract the buffer pool and heap files
// run on. Two implementations exist:
//
//   - *Disk: the in-memory page store (the test and benchmark
//     default) — fast, volatile, counts I/O for the cost model;
//   - *FileDisk: the crash-safe, file-backed store — every mutation
//     but an unlogged file's is written ahead to a checksummed log
//     (see wal.go), data files carry per-page CRC32C checksums, and
//     Recover replays the log after a crash (see filedisk.go).
//
// Sync is the durability barrier: once it returns, every mutation
// issued before the call survives a crash. On the in-memory Disk it
// is a no-op.
type Store interface {
	// CreateFile allocates a new empty file and returns its ID.
	CreateFile() FileID
	// DropFile removes a file and its pages.
	DropFile(id FileID)
	// NumPages returns the number of pages in the file.
	NumPages(id FileID) int
	// AppendPage grows the file by one zero page, returning its number.
	AppendPage(id FileID) (int32, error)
	// Truncate cuts the file back to its first pages pages.
	Truncate(id FileID, pages int) error
	// ReadPage copies the page into dst.
	ReadPage(pid PageID, dst *Page) error
	// WritePage copies the page back to the device.
	WritePage(pid PageID, src *Page) error
	// Sync is the durability barrier (no-op for the in-memory Disk).
	Sync() error
	// Close releases the store; durable stores checkpoint first.
	Close() error

	// Stats returns the cumulative read and write counts.
	Stats() (reads, writes int64)
	// Snapshot atomically snapshots the I/O counters.
	Snapshot() IOStats
	// ResetStats zeroes the I/O counters.
	ResetStats()

	// FailReadsAfter / FailWritesAfter arm one-shot failure injection
	// for tests (see Disk).
	FailReadsAfter(n int64)
	FailWritesAfter(n int64)
}

var (
	_ Store = (*Disk)(nil)
	_ Store = (*FileDisk)(nil)
)
