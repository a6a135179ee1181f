// FileDisk: the crash-safe, file-backed Store.
//
// Design: the WAL is the sole durable medium between checkpoints. Page
// state lives in the embedded in-memory Disk; every mutation
// (CreateFile, DropFile, AppendPage, WritePage) logs a physiological
// record to the WAL before touching memory, and Sync — the Store's
// durability barrier — flushes the group-commit buffer and fsyncs the
// log. A file of CreateTempFile is unlogged: its mutations log nothing
// and its pages reach no data file, so no restart sees it. Data files
// (f%08d.pg, one CRC32C-framed page per slot) are only written during
// Checkpoint, whose first step is a WAL sync; because
// an incremental checkpoint rewrites exactly the pages dirtied since
// the previous checkpoint, any page a crash can tear mid-checkpoint is
// guaranteed to have a covering image in the still-current WAL. The
// WAL swap (fresh empty log) is the LAST checkpoint step, after the
// metadata file (meta.tango: file sizes, meta keys, open-load marks,
// LSN/file-ID high-water marks) has been atomically replaced via
// tmp+rename.
//
// Recover rebuilds the store from the directory: load data files
// (checksum-verifying every page frame; failures are tolerated only if
// a WAL record repairs them), replay the WAL in LSN order (truncating
// a torn tail), roll back loads whose commit record never became
// durable, then write a full checkpoint through tmp+rename so the
// recovered image is itself crash-safe.
//
//tango:durability
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/fault"
)

// DefaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint at the next Sync. Keep it a few hundred page images so
// test workloads exercise the checkpoint path.
const DefaultCheckpointBytes = 1 << 21 // 2 MB

// pageFrameSize is the on-disk footprint of one page:
// [crc32c uint32][reserved uint32][payload PageSize]. The CRC covers
// (fileID, pageNo, payload) so a frame copied to the wrong slot — or a
// torn write mixing two page versions — fails verification.
const pageFrameSize = PageSize + 8

func encodePageFrame(dst []byte, file FileID, pageNo int32, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(file))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(pageNo))
	sum := crc32.Checksum(hdr[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return append(dst, payload...)
}

func verifyPageFrame(file FileID, pageNo int32, frame []byte) bool {
	if len(frame) != pageFrameSize {
		return false
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(file))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(pageNo))
	sum := crc32.Checksum(hdr[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, frame[8:])
	return binary.LittleEndian.Uint32(frame) == sum
}

// loadMark brackets an uncommitted bulk load: if the commit record
// never becomes durable, recovery truncates the file back to
// PagesBefore pages (the pre-load state).
type loadMark struct {
	PagesBefore int32
	Name        string
}

// pageFormat versions the page layout a store is written in: 2 is one
// columnar block per page (types.AppendBlock). A meta.tango without a
// format (0) belongs to a store of slotted row-record pages.
const pageFormat = 2

// ErrPageFormat is returned by Recover for a store written in another
// page format: this build cannot read its pages.
var ErrPageFormat = errors.New("storage: store written in another page format")

// diskMeta is the checkpoint metadata file (meta.tango), replaced
// atomically via tmp+rename at every checkpoint.
type diskMeta struct {
	PageFormat int
	NextID     FileID
	NextLSN    uint64
	Files      map[FileID]int
	Meta       map[string]string
	OpenLoads  map[FileID]loadMark
}

func walPath(dir string) string  { return filepath.Join(dir, "wal.log") }
func metaPath(dir string) string { return filepath.Join(dir, "meta.tango") }
func dataPath(dir string, id FileID) string {
	return filepath.Join(dir, fmt.Sprintf("f%08d.pg", id))
}

// FileDisk is the durable Store. The embedded Disk holds the runtime
// page state (and the I/O counters); fmu serializes the durable
// bookkeeping and is always taken before the Disk mutex — the ordered
// pair below. fmu is deliberately NOT a latch: serializing WAL
// appends is its whole job — but since group commit it is no longer
// held across fsync. That job moved to smu (class "walsync"), which
// serializes batch fsyncs and the checkpoint's WAL swap; committers
// append under fmu and then wait on a batch, so N sessions committing
// together share one fsync. gmu (class "groupcommit") is the latch
// guarding only the open-batch pointer.
//
//tango:lock-order store < memstore
//tango:lock-order walsync < store
//tango:lock-order walsync < groupcommit

type FileDisk struct {
	Disk
	dir string

	// CheckpointBytes is the WAL-size threshold for automatic
	// checkpoints at Sync; 0 restores DefaultCheckpointBytes, a
	// negative value disables automatic checkpoints.
	CheckpointBytes int64

	fmu       sync.Mutex //tango:lock-order store
	wal       *wal
	metaKV    map[string]string
	dirty     map[PageID]struct{} // pages dirtied since last checkpoint
	dropped   map[FileID]struct{} // files dropped since last checkpoint
	unlogged  map[FileID]struct{} // live files of CreateTempFile
	openLoads map[FileID]loadMark
	// crashed is the trip: set once a wal or page trap has fired, it
	// fails every later operation, and every physical write checks it
	// before it reaches a file (see writeFault).
	crashed atomic.Bool

	// Group commit. smu admits one batch fsync at a time; gmu guards
	// the batch the next committers pile onto.
	smu  sync.Mutex //tango:lock-order walsync
	gmu  sync.Mutex //tango:lock-order groupcommit latch
	open *commitBatch

	commits atomic.Int64 // Commit calls (leader + follower)
	batches atomic.Int64 // batch fsyncs on the commit path
	fsyncs  atomic.Int64 // WAL fsyncs, commit path + checkpoints
}

// commitBatch is one group of concurrent committers sharing a single
// WAL write+fsync. done is closed by the leader once err is set.
type commitBatch struct {
	done chan struct{}
	err  error
}

// Dir returns the data directory backing the store.
func (fd *FileDisk) Dir() string { return fd.dir }

// Crashed reports whether the simulated process image is dead.
func (fd *FileDisk) Crashed() bool { return fd.crashed.Load() }

// HasFile reports whether the file exists in the store — after
// recovery, whether it survived (a rolled-back creation does not).
func (fd *FileDisk) HasFile(id FileID) bool { return fd.Disk.hasFile(id) }

// PutMeta durably associates val with key (at the next Sync). The
// engine stores its serialized catalog here, keeping the storage layer
// ignorant of catalog formats.
func (fd *FileDisk) PutMeta(key, val string) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	fd.wal.append(&walRecord{typ: recMeta, key: key, val: val})
	fd.metaKV[key] = val
	return nil
}

// Meta returns the value stored under key.
func (fd *FileDisk) Meta(key string) (string, bool) {
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	v, ok := fd.metaKV[key]
	return v, ok
}

// BeginLoad marks the start of an atomic bulk load into the file:
// until CommitLoad is durable, recovery rolls the file back to its
// current page count. name is recorded for diagnostics.
func (fd *FileDisk) BeginLoad(id FileID, name string) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	before := int32(fd.Disk.NumPages(id))
	fd.wal.append(&walRecord{typ: recBeginLoad, file: id, pagesBefore: before, name: name})
	fd.openLoads[id] = loadMark{PagesBefore: before, Name: name}
	return nil
}

// CommitLoad closes the load bracket: once durable, the loaded pages
// survive recovery.
func (fd *FileDisk) CommitLoad(id FileID) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	fd.wal.append(&walRecord{typ: recCommitLoad, file: id})
	delete(fd.openLoads, id)
	return nil
}

// Truncate cuts the file back to its first pages pages, logging the
// cut. It ends the file's open load, if any: truncating to the load's
// pre-load page count is the rollback recovery would perform.
func (fd *FileDisk) Truncate(id FileID, pages int) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	if !fd.Disk.hasFile(id) || pages < 0 {
		return fmt.Errorf("storage: truncate of missing file %d to %d pages", id, pages)
	}
	if _, ok := fd.unlogged[id]; ok {
		return fd.Disk.Truncate(id, pages)
	}
	fd.wal.append(&walRecord{typ: recTruncate, file: id, pageNo: int32(pages)})
	if err := fd.Disk.Truncate(id, pages); err != nil {
		return err
	}
	delete(fd.openLoads, id)
	for pid := range fd.dirty {
		if pid.File == id && pid.No >= int32(pages) {
			delete(fd.dirty, pid)
		}
	}
	return nil
}

// CreateFile allocates a new file, logging the allocation. On a
// crashed store it returns 0 (an invalid file ID); every operation on
// it fails.
func (fd *FileDisk) CreateFile() FileID {
	if fd.crashed.Load() {
		return 0
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	id := fd.Disk.CreateFile()
	fd.wal.append(&walRecord{typ: recCreate, file: id})
	return id
}

// CreateTempFile allocates an unlogged file: its creation, appends,
// page images, truncation and drop write no WAL record, its pages are
// never checkpointed, and meta.tango never lists it, so it vanishes at
// any restart. It holds state that no restart may see — the
// middleware's transfer temp tables.
func (fd *FileDisk) CreateTempFile() (FileID, error) {
	if fd.crashed.Load() {
		return 0, ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	id := fd.Disk.CreateFile()
	fd.unlogged[id] = struct{}{}
	return id, nil
}

// DropFile removes the file, logging the drop of a logged one.
func (fd *FileDisk) DropFile(id FileID) {
	if fd.crashed.Load() {
		return
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	if _, ok := fd.unlogged[id]; ok {
		delete(fd.unlogged, id)
		fd.Disk.DropFile(id)
		return
	}
	fd.wal.append(&walRecord{typ: recDrop, file: id})
	fd.Disk.DropFile(id)
	fd.dropped[id] = struct{}{}
	delete(fd.openLoads, id)
	for pid := range fd.dirty {
		if pid.File == id {
			delete(fd.dirty, pid)
		}
	}
}

// AppendPage grows the file by one zero page, logging the append to
// a logged file.
func (fd *FileDisk) AppendPage(id FileID) (int32, error) {
	if fd.crashed.Load() {
		return 0, ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	no, err := fd.Disk.AppendPage(id)
	if _, ok := fd.unlogged[id]; err != nil || ok {
		return no, err
	}
	fd.wal.append(&walRecord{typ: recAppend, file: id, pageNo: no})
	fd.dirty[PageID{File: id, No: no}] = struct{}{}
	return no, nil
}

// WritePage updates the in-memory page and, once that has succeeded,
// logs its full image under the same latch, so a write reported failed
// leaves no record to replay; an unlogged file's page is only updated.
// The log still precedes the data: data files are written only by a
// checkpoint, which takes the latch.
func (fd *FileDisk) WritePage(pid PageID, src *Page) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	if _, ok := fd.unlogged[pid.File]; ok {
		return fd.Disk.WritePage(pid, src)
	}
	if !fd.Disk.hasFile(pid.File) {
		return fmt.Errorf("storage: write of missing page %v", pid)
	}
	if err := fd.Disk.WritePage(pid, src); err != nil {
		return err
	}
	fd.wal.append(&walRecord{typ: recImage, file: pid.File, pageNo: pid.No, image: src.buf[:]})
	fd.dirty[pid] = struct{}{}
	return nil
}

// ReadPage serves the page from the in-memory state.
func (fd *FileDisk) ReadPage(pid PageID, dst *Page) error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	return fd.Disk.ReadPage(pid, dst)
}

// Sync is the durability barrier: all buffered WAL records reach the
// fsynced log. It is Commit under another name — concurrent callers
// share fsyncs. When the log has grown past CheckpointBytes, the
// barrier also takes an automatic incremental checkpoint.
func (fd *FileDisk) Sync() error { return fd.Commit() }

// Commit is the group-commit durability barrier: it returns once
// every WAL record appended by this goroutine before the call is on
// fsynced stable storage. Concurrent committers are batched — one
// leader drains the group-commit buffer and fsyncs once for the whole
// batch while followers wait on the batch channel — so N sessions
// committing together cost far fewer than N fsyncs. A single
// uncontended caller degenerates to exactly one fsync with no added
// latency.
func (fd *FileDisk) Commit() error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.commits.Add(1)
	fd.gmu.Lock()
	if b := fd.open; b != nil {
		// Follower: a leader exists and has not yet drained the
		// buffer, so our records (appended under fmu before this call)
		// are covered by its batch. Wait outside any lock.
		fd.gmu.Unlock()
		<-b.done
		return b.err
	}
	b := &commitBatch{done: make(chan struct{})}
	fd.open = b
	fd.gmu.Unlock()

	// Leader: queue behind the in-flight batch fsync (if any); while
	// we wait, later committers pile onto b as followers.
	fd.smu.Lock()
	fd.gmu.Lock()
	fd.open = nil // close the batch; the next committer leads a new one
	fd.gmu.Unlock()
	b.err = fd.syncBatchLocked()
	fd.smu.Unlock()
	close(b.done)
	return b.err
}

// syncBatchLocked drains the group-commit buffer and writes+fsyncs it
// with fmu released, so committers keep appending during the I/O.
// Caller holds smu, which excludes concurrent batch fsyncs and — via
// Checkpoint/Close also taking smu — any WAL swap under the captured
// writer.
func (fd *FileDisk) syncBatchLocked() error {
	fd.fmu.Lock()
	w := fd.wal
	frames := w.takePending()
	fd.fmu.Unlock()

	nBytes, nRecs, err := fd.writeFrames(w, frames)
	fd.fsyncs.Add(1)
	fd.batches.Add(1)

	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	w.durableBytes += nBytes
	w.durableRecords += nRecs
	if err != nil {
		// Re-attach what never reached the file ahead of anything
		// appended meanwhile. (After a scripted crash the store is
		// dead and the frames are unreachable either way.)
		w.pending = append(frames[nRecs:], w.pending...)
		return err
	}
	limit := fd.CheckpointBytes
	if limit == 0 {
		limit = DefaultCheckpointBytes
	}
	if limit > 0 && w.durableBytes >= limit {
		return fd.checkpointLocked()
	}
	return nil
}

// GroupCommitStats reports commit-path counters: Commit calls, batch
// fsyncs on the commit path, and total WAL fsyncs (commit batches
// plus checkpoint syncs). fsyncs/commits < 1 under concurrency is the
// whole point of group commit.
func (fd *FileDisk) GroupCommitStats() (commits, batches, fsyncs int64) {
	return fd.commits.Load(), fd.batches.Load(), fd.fsyncs.Load()
}

// WALStats reports the durable size of the current log segment (bytes
// and records since the last checkpoint).
func (fd *FileDisk) WALStats() (bytes, records int64) {
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	return fd.wal.durableBytes, fd.wal.durableRecords
}

// Checkpoint takes an incremental fuzzy checkpoint: WAL sync, dirty
// pages written in place (each covered by a WAL image should the write
// tear), dropped files removed, metadata replaced atomically, and
// finally a fresh log swapped in.
func (fd *FileDisk) Checkpoint() error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.smu.Lock()
	defer fd.smu.Unlock()
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	return fd.checkpointLocked()
}

// Close checkpoints and releases the store.
func (fd *FileDisk) Close() error {
	if fd.crashed.Load() {
		return ErrCrashed
	}
	fd.smu.Lock()
	defer fd.smu.Unlock()
	fd.fmu.Lock()
	defer fd.fmu.Unlock()
	if err := fd.checkpointLocked(); err != nil {
		return err
	}
	return fd.wal.close()
}

// walSyncLocked writes every pending WAL record and fsyncs the log.
// On a trip the unwritten records stay pending; the store is dead.
func (fd *FileDisk) walSyncLocked() error {
	w := fd.wal
	nBytes, nRecs, err := fd.writeFrames(w, w.pending)
	w.pending = w.pending[nRecs:]
	w.durableBytes += nBytes
	w.durableRecords += nRecs
	fd.fsyncs.Add(1)
	return err
}

// SetFaults attaches (or, with nil, detaches) the fault injector: its
// read and write traps fail page I/O as on the in-memory store, and a
// wal or page trap kills the store at that physical write.
func (fd *FileDisk) SetFaults(f *fault.Injector) error {
	fd.faults.Store(f)
	return nil
}

// writeFault decides one physical write of op (fault.OpWAL or
// fault.OpPage). A dead store writes nothing more: once a trap has
// tripped it, every later write — even one already in flight in a
// group-commit leader or a checkpoint — is dropped before the injector
// is consulted, so a trap's index counts only writes that could happen.
func (fd *FileDisk) writeFault(op fault.Op) fault.Kind {
	if fd.crashed.Load() {
		return fault.KindDrop
	}
	return fd.faults.Load().Decide(op).Kind
}

// writeFrames writes frames to w's file and fsyncs it, one
// fault.OpWAL point per frame: a drop omits the frame, a torn or
// partial write leaves its first half, and either fsyncs what reached
// the file (the worst a kill -9 leaves), kills the store and drops the
// remainder. It returns the byte and record counts that
// became durable, which the caller folds into the log's totals under
// its own lock.
func (fd *FileDisk) writeFrames(w *wal, frames [][]byte) (nBytes, nRecs int64, err error) {
	for _, frame := range frames {
		switch fd.writeFault(fault.OpWAL) {
		case fault.KindNone:
			if _, werr := w.f.Write(frame); werr != nil {
				return nBytes, nRecs, fmt.Errorf("storage: wal write: %w", werr)
			}
			nBytes += int64(len(frame))
			nRecs++
			continue
		case fault.KindDrop:
		default: // torn, partial
			if _, werr := w.f.Write(frame[:len(frame)/2]); werr != nil {
				return nBytes, nRecs, fmt.Errorf("storage: wal torn write: %w", werr)
			}
		}
		_ = w.f.Sync()
		fd.crashed.Store(true)
		return nBytes, nRecs, ErrCrashed
	}
	if ferr := w.f.Sync(); ferr != nil {
		return nBytes, nRecs, fmt.Errorf("storage: wal fsync: %w", ferr)
	}
	return nBytes, nRecs, nil
}

// checkpointLocked requires both smu and fmu: smu keeps a concurrent
// group-commit batch from fsyncing through (or swapping out from
// under) the WAL writer mid-checkpoint; fmu freezes the bookkeeping.
func (fd *FileDisk) checkpointLocked() error {
	// Step 1: WAL first — every dirty page about to be written in
	// place must have its covering image durable before the in-place
	// write can tear it.
	if err := fd.walSyncLocked(); err != nil {
		return err
	}

	// Step 2: dirty pages, in deterministic (file, page) order so
	// crash-point counting is replayable.
	pids := make([]PageID, 0, len(fd.dirty))
	for pid := range fd.dirty {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool {
		if pids[i].File != pids[j].File {
			return pids[i].File < pids[j].File
		}
		return pids[i].No < pids[j].No
	})
	handles := map[FileID]*os.File{}
	closeAll := func() {
		for _, f := range handles {
			// Best-effort: on the success path every handle was already
			// fsynced, and on error paths the primary error propagates.
			_ = f.Close()
		}
	}
	frame := make([]byte, 0, pageFrameSize)
	for _, pid := range pids {
		payload, ok := fd.Disk.pageCopy(pid)
		if !ok {
			continue // dropped after being dirtied
		}
		f := handles[pid.File]
		if f == nil {
			var err error
			f, err = os.OpenFile(dataPath(fd.dir, pid.File), os.O_CREATE|os.O_RDWR, 0o644)
			if err != nil {
				closeAll()
				return fmt.Errorf("storage: checkpoint open: %w", err)
			}
			handles[pid.File] = f
		}
		frame = encodePageFrame(frame[:0], pid.File, pid.No, payload)
		off := int64(pid.No) * pageFrameSize
		switch fd.writeFault(fault.OpPage) {
		case fault.KindNone:
			if _, err := f.WriteAt(frame, off); err != nil {
				closeAll()
				return fmt.Errorf("storage: checkpoint write: %w", err)
			}
			continue
		case fault.KindDrop:
		default: // torn, partial
			if _, err := f.WriteAt(frame[:pageFrameSize/2], off); err != nil {
				closeAll()
				return fmt.Errorf("storage: checkpoint torn write: %w", err)
			}
		}
		for _, h := range handles {
			_ = h.Sync()
		}
		closeAll()
		fd.crashed.Store(true)
		return ErrCrashed
	}
	for _, f := range handles {
		if err := f.Sync(); err != nil {
			closeAll()
			return fmt.Errorf("storage: checkpoint fsync: %w", err)
		}
	}
	closeAll()

	// Step 3: remove files dropped since the last checkpoint.
	for id := range fd.dropped {
		if err := os.Remove(dataPath(fd.dir, id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("storage: checkpoint remove: %w", err)
		}
	}

	// Step 4: atomically replace the metadata file.
	if err := fd.writeMetaLocked(fd.wal.nextLSN); err != nil {
		return err
	}

	// Step 5 (last): swap in a fresh log. A crash before this point
	// leaves the old WAL in place, and replaying it over the new
	// metadata is idempotent (absolute page addressing).
	if err := fd.swapWALLocked(fd.wal.nextLSN); err != nil {
		return err
	}
	fd.dirty = map[PageID]struct{}{}
	fd.dropped = map[FileID]struct{}{}
	return nil
}

// writeMetaLocked atomically replaces meta.tango. nextLSN is passed
// explicitly because on the recovery path the WAL writer does not
// exist yet to supply the high-water mark.
func (fd *FileDisk) writeMetaLocked(nextLSN uint64) error {
	files := fd.Disk.fileSizes()
	for id := range fd.unlogged {
		delete(files, id)
	}
	dm := diskMeta{
		PageFormat: pageFormat,
		NextID:     fd.Disk.lastFileID(),
		NextLSN:    nextLSN,
		Files:      files,
		Meta:       fd.metaKV,
		OpenLoads:  fd.openLoads,
	}
	buf, err := json.Marshal(&dm)
	if err != nil {
		return fmt.Errorf("storage: encode meta: %w", err)
	}
	if err := writeFileAtomic(metaPath(fd.dir), buf); err != nil {
		return err
	}
	return syncDir(fd.dir)
}

// swapWALLocked atomically replaces the log with a fresh empty one and
// re-opens the writer on it, preserving the LSN sequence.
func (fd *FileDisk) swapWALLocked(nextLSN uint64) error {
	path := walPath(fd.dir)
	if err := writeFileAtomic(path, nil); err != nil {
		return err
	}
	if err := syncDir(fd.dir); err != nil {
		return err
	}
	if fd.wal != nil {
		if err := fd.wal.close(); err != nil {
			return fmt.Errorf("storage: close old wal: %w", err)
		}
	}
	w, err := openWAL(path, nextLSN)
	if err != nil {
		return err
	}
	fd.wal = w
	return nil
}

// writeFileAtomic writes data to path via tmp + fsync + rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // best-effort; the write error propagates
		return fmt.Errorf("storage: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // best-effort; the fsync error propagates
		return fmt.Errorf("storage: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("storage: rename %s: %w", tmp, err)
	}
	return nil
}

// syncDir fsyncs the directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("storage: fsync dir: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("storage: close dir: %w", cerr)
	}
	return nil
}

// RecoveryStats reports what the redo pass did; the server exports
// these as tango_recovery_* counters and a startup-trace span.
type RecoveryStats struct {
	ReplayedRecords  int64         // WAL records redone
	WALBytes         int64         // valid WAL bytes read
	TornTails        int64         // log tails truncated (0 or 1 per segment)
	ChecksumFailures int64         // data-page frames that failed CRC32C
	RepairedPages    int64         // damaged/zero pages restored from WAL records
	RolledBackLoads  int64         // uncommitted bulk loads rolled back
	Duration         time.Duration // wall time of the whole pass
}

// Recover opens (or creates) the data directory and rebuilds a
// consistent FileDisk: checkpointed data files are loaded under
// checksum verification, the WAL is replayed past the checkpoint
// (truncating a torn tail), uncommitted loads are rolled back, and a
// full tmp+rename checkpoint makes the recovered image durable. An
// empty or missing directory yields a fresh empty store; a store whose
// meta.tango records another page format is refused with ErrPageFormat.
func Recover(dir string) (*FileDisk, *RecoveryStats, error) {
	start := time.Now()
	stats := &RecoveryStats{}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("storage: recover: %w", err)
	}

	// Checkpoint metadata (absent on first boot).
	dm := diskMeta{PageFormat: pageFormat, Files: map[FileID]int{}, Meta: map[string]string{}, OpenLoads: map[FileID]loadMark{}}
	if buf, err := os.ReadFile(metaPath(dir)); err == nil {
		dm.PageFormat = 0
		if err := json.Unmarshal(buf, &dm); err != nil {
			return nil, stats, fmt.Errorf("storage: recover: corrupt meta.tango: %w", err)
		}
		if dm.PageFormat != pageFormat {
			return nil, stats, fmt.Errorf("%w: meta.tango records page format %d, this build reads %d", ErrPageFormat, dm.PageFormat, pageFormat)
		}
	} else if !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("storage: recover: %w", err)
	}
	if dm.Files == nil {
		dm.Files = map[FileID]int{}
	}
	if dm.Meta == nil {
		dm.Meta = map[string]string{}
	}
	if dm.OpenLoads == nil {
		dm.OpenLoads = map[FileID]loadMark{}
	}

	// Load checkpointed data files, verifying every page frame. A
	// failed frame becomes a zero page marked damaged; it must be
	// repaired by a WAL record (or vanish with its file) or recovery
	// fails.
	files := map[FileID][][]byte{}
	damaged := map[PageID]struct{}{}
	for id, n := range dm.Files {
		var data []byte
		if n > 0 {
			var err error
			data, err = os.ReadFile(dataPath(dir, id))
			if err != nil && !os.IsNotExist(err) {
				return nil, stats, fmt.Errorf("storage: recover: %w", err)
			}
		}
		pages := make([][]byte, 0, n)
		for pageNo := 0; pageNo < n; pageNo++ {
			off := pageNo * pageFrameSize
			if off+pageFrameSize <= len(data) && verifyPageFrame(id, int32(pageNo), data[off:off+pageFrameSize]) {
				page := make([]byte, PageSize)
				copy(page, data[off+8:off+pageFrameSize])
				pages = append(pages, page)
				continue
			}
			stats.ChecksumFailures++
			damaged[PageID{File: id, No: int32(pageNo)}] = struct{}{}
			pages = append(pages, make([]byte, PageSize))
		}
		files[id] = pages
	}

	// Replay the WAL past the checkpoint.
	nextID := dm.NextID
	nextLSN := dm.NextLSN
	metaKV := dm.Meta
	openLoads := dm.OpenLoads
	walData, err := os.ReadFile(walPath(dir))
	if err != nil && !os.IsNotExist(err) {
		return nil, stats, fmt.Errorf("storage: recover: %w", err)
	}
	recs, validLen, torn := readWALRecords(walData)
	stats.WALBytes = int64(validLen)
	if torn {
		stats.TornTails++
	}
	repair := func(pid PageID) {
		if _, ok := damaged[pid]; ok {
			delete(damaged, pid)
			stats.RepairedPages++
		}
	}
	// truncate cuts a file back to its first pages pages, forgetting
	// the damage of the pages cut.
	truncate := func(id FileID, pages int32) {
		if p, ok := files[id]; ok && int32(len(p)) > pages {
			files[id] = p[:pages]
		}
		for pid := range damaged {
			if pid.File == id && pid.No >= pages {
				delete(damaged, pid)
			}
		}
	}
	for _, r := range recs {
		stats.ReplayedRecords++
		if r.lsn >= nextLSN {
			nextLSN = r.lsn + 1
		}
		switch r.typ {
		case recCreate:
			if _, ok := files[r.file]; !ok {
				files[r.file] = nil
			}
			if r.file > nextID {
				nextID = r.file
			}
		case recDrop:
			delete(files, r.file)
			delete(openLoads, r.file)
			for pid := range damaged {
				if pid.File == r.file {
					delete(damaged, pid)
				}
			}
		case recAppend:
			pages, ok := files[r.file]
			if !ok {
				continue
			}
			// Extend only: the appended page's durable content is
			// zero until an image record follows. Never shrink or
			// overwrite — replaying an old log over newer checkpoint
			// metadata must be idempotent.
			for int32(len(pages)) <= r.pageNo {
				pages = append(pages, make([]byte, PageSize))
			}
			files[r.file] = pages
			repair(PageID{File: r.file, No: r.pageNo})
		case recImage:
			pages, ok := files[r.file]
			if !ok {
				continue
			}
			for int32(len(pages)) <= r.pageNo {
				pages = append(pages, make([]byte, PageSize))
			}
			copy(pages[r.pageNo], r.image)
			files[r.file] = pages
			repair(PageID{File: r.file, No: r.pageNo})
		case recBeginLoad:
			openLoads[r.file] = loadMark{PagesBefore: r.pagesBefore, Name: r.name}
		case recCommitLoad:
			delete(openLoads, r.file)
		case recTruncate:
			truncate(r.file, r.pageNo)
			delete(openLoads, r.file)
		case recMeta:
			metaKV[r.key] = r.val
		}
	}

	// Roll back loads whose commit never became durable: the file
	// returns to its pre-load page count (atomic load).
	for id, mark := range openLoads {
		if _, ok := files[id]; !ok {
			continue
		}
		truncate(id, mark.PagesBefore)
		stats.RolledBackLoads++
	}

	// Any damaged page still inside a live file was corrupted with no
	// covering WAL record: unrecoverable.
	for pid := range damaged {
		if pages, ok := files[pid.File]; ok && int(pid.No) < len(pages) {
			return nil, stats, fmt.Errorf("storage: recover: page %v failed its checksum and no WAL record covers it", pid)
		}
	}

	fd := &FileDisk{
		dir:       dir,
		metaKV:    metaKV,
		dirty:     map[PageID]struct{}{},
		dropped:   map[FileID]struct{}{},
		unlogged:  map[FileID]struct{}{},
		openLoads: map[FileID]loadMark{},
	}
	fd.Disk.files = files
	fd.Disk.nextID = nextID

	// Full checkpoint via tmp+rename per file: unlike the incremental
	// in-place path, clean pages here may have no WAL coverage, so
	// they must never be exposed to tearing.
	ids := make([]FileID, 0, len(files))
	for id := range files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pages := files[id]
		buf := make([]byte, 0, len(pages)*pageFrameSize)
		for no, payload := range pages {
			buf = encodePageFrame(buf, id, int32(no), payload)
		}
		if err := writeFileAtomic(dataPath(dir, id), buf); err != nil {
			return nil, stats, err
		}
	}
	// Remove stale page files (dropped before the crash, removal never
	// reached the directory).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, fmt.Errorf("storage: recover: %w", err)
	}
	for _, e := range entries {
		var id FileID
		if n, _ := fmt.Sscanf(e.Name(), "f%08d.pg", &id); n == 1 && filepath.Ext(e.Name()) == ".pg" {
			if _, live := files[id]; !live {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
					return nil, stats, fmt.Errorf("storage: recover: %w", err)
				}
			}
		}
	}
	if err := fd.writeMetaLocked(nextLSN); err != nil {
		return nil, stats, err
	}
	if err := fd.swapWALLocked(nextLSN); err != nil {
		return nil, stats, err
	}
	stats.Duration = time.Since(start)
	return fd, stats, nil
}
