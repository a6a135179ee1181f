package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages from a Store with LRU replacement and
// write-back of dirty pages. Fetched pages are pinned until Unpin; a
// pinned page is never evicted. The pool is goroutine-safe at the
// fetch/unpin level; a fetched *Page must be used by one goroutine at
// a time.
//
// The frame-table mutex is a latch: it covers map/LRU bookkeeping
// only, never disk I/O. A miss reserves a loading placeholder under
// the latch and reads with the latch released (concurrent fetchers of
// the same page wait on ioDone instead of issuing duplicate reads);
// eviction and FlushAll fence the victim frame and write its page
// image back with the latch released. The pool may transiently hold
// capacity+k frames while k loads are in flight.
type BufferPool struct {
	disk     Store
	capacity int

	mu     sync.Mutex //tango:lock-order bufferpool latch
	ioDone *sync.Cond // signaled when a loading or evicting frame settles
	frames map[PageID]*frame
	lru    frameList // the frames of the table, most recent at front
	// free holds frames that cache no page, for the next miss, new page
	// or write-back image to reuse: a frame is over 8 KiB, and a scan of
	// a heap larger than the pool used to allocate one per page.
	free []*frame

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type frame struct {
	pid  PageID
	page Page
	pins int
	// prev and next link the frame into BufferPool.lru while it is in
	// the frame table; guarded by BufferPool.mu.
	prev, next *frame
	// loading marks a frame whose page image is being read from disk;
	// evicting marks one whose image is being written back. Either
	// state keeps the frame out of eviction, and loading additionally
	// makes fetchers wait. Both are guarded by BufferPool.mu; the I/O
	// itself runs with the latch released.
	loading  bool
	evicting bool
	// latch orders readers and the single catalog writer on the page
	// CONTENT (the pool latch above covers only frame bookkeeping). It
	// is acquired strictly after Fetch returns — never across I/O —
	// and released before the unpin, so it nests inside nothing.
	latch sync.RWMutex //tango:lock-order frame latch
}

// frameList is the LRU order, linked through the frames themselves so
// that inserting, touching and removing a frame allocates nothing.
type frameList struct{ front, back *frame }

func (l *frameList) pushFront(f *frame) {
	f.prev, f.next = nil, l.front
	if l.front != nil {
		l.front.prev = f
	} else {
		l.back = f
	}
	l.front = f
}

func (l *frameList) remove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		l.front = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		l.back = f.prev
	}
	f.prev, f.next = nil, nil
}

func (l *frameList) moveToFront(f *frame) {
	if l.front != f {
		l.remove(f)
		l.pushFront(f)
	}
}

// The pool latch and the per-frame content latch are never held
// together, but the declared order pins the hierarchy: frame latches
// live below the pool in the tree.
//
//tango:lock-order bufferpool < frame

// PageRef is a pinned, content-latched page handle returned by
// FetchShared/FetchExclusive; Release drops the latch and the pin. It
// is a value, so a fetch allocates nothing.
type PageRef struct {
	bp   *BufferPool
	f    *frame // nil once released
	excl bool
}

// FetchShared pins the page and takes its content latch in shared
// mode, blocking only if a writer holds the page exclusively. Any
// disk read happens inside the fetch, before the latch is touched.
func (bp *BufferPool) FetchShared(pid PageID) (*Page, PageRef, error) {
	f, err := bp.fetch(pid)
	if err != nil {
		return nil, PageRef{}, err
	}
	f.latch.RLock()
	return &f.page, PageRef{bp: bp, f: f}, nil
}

// FetchExclusive pins the page and takes its content latch in
// exclusive mode, for in-place mutation of a published page.
func (bp *BufferPool) FetchExclusive(pid PageID) (*Page, PageRef, error) {
	f, err := bp.fetch(pid)
	if err != nil {
		return nil, PageRef{}, err
	}
	f.latch.Lock()
	return &f.page, PageRef{bp: bp, f: f, excl: true}, nil
}

// Release drops the content latch, then the pin — of the frame itself,
// which stays valid while pinned even if Invalidate has dropped it from
// the table.
func (r *PageRef) Release() {
	if r.f == nil {
		return
	}
	if r.excl {
		r.f.latch.Unlock()
	} else {
		r.f.latch.RUnlock()
	}
	r.bp.mu.Lock()
	if r.f.pins > 0 {
		r.f.pins--
	}
	r.bp.mu.Unlock()
	r.f = nil
}

// NewBufferPool creates a pool of the given capacity (in pages) over
// the store. Capacity must be at least 1.
func NewBufferPool(disk Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   map[PageID]*frame{},
	}
	bp.ioDone = sync.NewCond(&bp.mu)
	return bp
}

// Fetch pins and returns the page; it is read from disk on a miss.
func (bp *BufferPool) Fetch(pid PageID) (*Page, error) {
	f, err := bp.fetch(pid)
	if err != nil {
		return nil, err
	}
	return &f.page, nil
}

// fetch pins the page's frame, reading the page on a miss.
func (bp *BufferPool) fetch(pid PageID) (*frame, error) {
	bp.mu.Lock()
	for {
		f, ok := bp.frames[pid]
		if !ok {
			break
		}
		if f.loading {
			// Another fetcher is reading this page; wait for its read
			// to settle instead of issuing a duplicate.
			bp.ioDone.Wait()
			continue
		}
		f.pins++
		bp.lru.moveToFront(f)
		bp.mu.Unlock()
		bp.hits.Add(1)
		return f, nil
	}
	// Miss: reserve a loading placeholder first so concurrent fetchers
	// of this page wait on it, make room, then read with the latch
	// released.
	bp.misses.Add(1)
	f := bp.insertFrame(pid)
	f.loading = true
	if err := bp.evictToCapacity(); err != nil {
		bp.dropFrame(f)
		bp.ioDone.Broadcast()
		bp.mu.Unlock()
		return nil, err
	}
	bp.mu.Unlock()

	readErr := bp.disk.ReadPage(pid, &f.page)

	bp.mu.Lock()
	f.loading = false
	bp.ioDone.Broadcast()
	if readErr != nil {
		bp.dropFrame(f)
		bp.mu.Unlock()
		return nil, readErr
	}
	f.pins = 1
	bp.mu.Unlock()
	return f, nil
}

// NewPage appends a fresh page to the file, pins it, and returns it.
func (bp *BufferPool) NewPage(file FileID) (PageID, *Page, error) {
	no, err := bp.disk.AppendPage(file)
	if err != nil {
		return PageID{}, nil, err
	}
	pid := PageID{File: file, No: no}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f := bp.insertFrame(pid)
	f.pins = 1 // pin immediately so eviction cannot pick the new frame
	if err := bp.evictToCapacity(); err != nil {
		bp.dropFrame(f)
		bp.ioDone.Broadcast()
		return PageID{}, nil, err
	}
	clear(f.page.buf[:]) // a zero page is an empty block
	f.page.dirty = true
	return pid, &f.page, nil
}

// spare returns a frame that caches no page: a recycled one, or a new
// one. Its page bytes are whatever it last held. Caller holds mu.
func (bp *BufferPool) spare() *frame {
	n := len(bp.free)
	if n == 0 {
		return &frame{}
	}
	f := bp.free[n-1]
	bp.free[n-1] = nil
	bp.free = bp.free[:n-1]
	f.pins, f.loading, f.evicting = 0, false, false
	return f
}

// insertFrame adds a frame for pid at the front of the LRU; caller
// holds mu. The pool may transiently exceed capacity until
// evictToCapacity runs.
func (bp *BufferPool) insertFrame(pid PageID) *frame {
	f := bp.spare()
	f.pid = pid
	bp.lru.pushFront(f)
	bp.frames[pid] = f
	return f
}

// dropFrame removes f from the frame table and the LRU, unless
// Invalidate already has; caller holds mu.
func (bp *BufferPool) dropFrame(f *frame) {
	if bp.frames[f.pid] == f {
		bp.lru.remove(f)
		delete(bp.frames, f.pid)
	}
}

// evictToCapacity evicts unpinned frames until the pool fits; caller
// holds mu, which may be released and reacquired while dirty victims
// are written back.
func (bp *BufferPool) evictToCapacity() error {
	for len(bp.frames) > bp.capacity {
		if err := bp.evictOne(); err != nil {
			return err
		}
	}
	return nil
}

// evictOne removes the least recently used unpinned frame and keeps it
// for reuse; caller holds mu. A dirty victim is fenced with evicting
// and its image written back from a spare frame with the latch
// released; a failed write-back keeps the frame dirty and resident —
// the same no-data-loss contract as the old latch-holding protocol,
// without the I/O under the latch.
func (bp *BufferPool) evictOne() error {
	var victim *frame
	for f := bp.lru.back; f != nil; f = f.prev {
		if f.pins > 0 || f.loading || f.evicting {
			continue
		}
		victim = f
		break
	}
	if victim == nil {
		return fmt.Errorf("storage: buffer pool exhausted (all %d pages pinned)", bp.capacity)
	}
	if !victim.page.dirty {
		bp.dropFrame(victim)
		bp.free = append(bp.free, victim)
		bp.evictions.Add(1)
		return nil
	}

	victim.evicting = true
	img := bp.spare()
	img.page = victim.page
	// Clear the bit with the image copy in the same latch hold: any
	// mutation during the write re-marks the page dirty rather than
	// being clobbered afterwards.
	victim.page.dirty = false
	pid := victim.pid
	bp.mu.Unlock()
	err := bp.disk.WritePage(pid, &img.page)
	bp.mu.Lock()
	bp.free = append(bp.free, img)
	victim.evicting = false
	bp.ioDone.Broadcast()
	if bp.frames[pid] != victim {
		// Invalidated (file dropped) while the image was in flight: the
		// frame is gone and its data intentionally discarded.
		return nil
	}
	if err != nil {
		victim.page.dirty = true
		return err
	}
	if victim.pins == 0 && !victim.page.dirty {
		bp.dropFrame(victim)
		bp.free = append(bp.free, victim)
		bp.evictions.Add(1)
	}
	return nil
}

// Unpin releases one pin on the page.
func (bp *BufferPool) Unpin(pid PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[pid]; ok && f.pins > 0 {
		f.pins--
	}
}

// FlushAll writes every dirty page back to the store, in deterministic
// (file, page) order. A failed write keeps its frame dirty — the page
// remains scheduled for a later flush — and the flush continues with
// the remaining frames; all write errors are aggregated into the
// returned error. Only frames whose write succeeded have their dirty
// bit cleared, so a partial failure never strands unwritten data as
// "clean".
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	dirty := make([]*frame, 0, len(bp.frames))
	for _, f := range bp.frames {
		// A loading frame's page is being read into, not dirty.
		if !f.loading && f.page.dirty {
			dirty = append(dirty, f)
		}
	}
	sort.Slice(dirty, func(i, j int) bool {
		if dirty[i].pid.File != dirty[j].pid.File {
			return dirty[i].pid.File < dirty[j].pid.File
		}
		return dirty[i].pid.No < dirty[j].pid.No
	})
	var errs []error
	for _, f := range dirty {
		if bp.frames[f.pid] != f || f.loading || !f.page.dirty {
			// Evicted — and perhaps reused — or already written back by
			// a concurrent eviction.
			continue
		}
		// Copy the image and clear the dirty bit in one latch hold, pin
		// the frame so eviction leaves it alone, and write with the
		// latch released. A mutation during the write re-marks the page
		// dirty; a failed write restores the bit.
		f.pins++
		img := bp.spare()
		img.page = f.page
		f.page.dirty = false
		pid := f.pid
		bp.mu.Unlock()
		err := bp.disk.WritePage(pid, &img.page)
		bp.mu.Lock()
		bp.free = append(bp.free, img)
		f.pins--
		if err != nil {
			f.page.dirty = true
			errs = append(errs, fmt.Errorf("flush %v: %w", pid, err))
		}
	}
	bp.mu.Unlock()
	return errors.Join(errs...)
}

// Dirty returns the number of cached frames whose page is dirty
// (unflushed). Harnesses use it to assert that no frame leaks past a
// durability barrier.
func (bp *BufferPool) Dirty() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if !f.loading && f.page.dirty {
			n++
		}
	}
	return n
}

// Pinned returns the total pin count across frames; a nonzero value
// after a query finishes indicates a leaked pin.
func (bp *BufferPool) Pinned() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		n += f.pins
	}
	return n
}

// CachedPages returns how many pages of the file are resident in the
// pool (used to verify Invalidate after DropFile).
func (bp *BufferPool) CachedPages(file FileID) int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for pid := range bp.frames {
		if pid.File == file {
			n++
		}
	}
	return n
}

// Invalidate drops any cached pages of the file numbered from on,
// without write-back (used when a table is dropped or truncated).
func (bp *BufferPool) Invalidate(file FileID, from int32) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for pid, f := range bp.frames {
		if pid.File == file && pid.No >= from {
			bp.lru.remove(f)
			delete(bp.frames, pid)
			// A pinned frame is not reused: its holder still reads the
			// page through it — a snapshot scanning a table dropped after
			// the snapshot was taken — and will release the pin on it.
			// A loading or evicting frame has an owner that still
			// refers to it, so it is not reused either.
			if f.pins == 0 && !f.loading && !f.evicting {
				bp.free = append(bp.free, f)
			}
		}
	}
}

// Stats returns cumulative hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}

// PoolStats is an atomic snapshot of the pool's cumulative hit/miss
// counters.
type PoolStats struct {
	Hits   int64
	Misses int64
	// Evictions counts frames pushed out to make room (a nonzero rate
	// means the working set exceeds the pool).
	Evictions int64
}

// Snapshot returns the current counters without taking the pool lock,
// so per-query deltas can be computed while other queries run.
func (bp *BufferPool) Snapshot() PoolStats {
	return PoolStats{Hits: bp.hits.Load(), Misses: bp.misses.Load(), Evictions: bp.evictions.Load()}
}

// Sub returns the delta s - base (activity between two snapshots).
func (s PoolStats) Sub(base PoolStats) PoolStats {
	return PoolStats{Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses, Evictions: s.Evictions - base.Evictions}
}

// HitRatio returns hits / (hits+misses), or 0 when the pool is cold.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
