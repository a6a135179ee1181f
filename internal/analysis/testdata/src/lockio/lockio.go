// Package lockio seeds blocking operations under latch-class locks.
// A latch is a short in-memory critical section; store/file I/O, WAL
// syncs, sleeps, and unbounded channel ops must happen outside it.
// The canonical good citizen is the group commit: hold the latch for
// the in-memory append only, release, then Sync.
package lockio

import (
	"net"
	"os"
	"sync"
	"time"
)

// Store is store-shaped (ReadPage/WritePage), so its Sync is a
// durability barrier; its lock is ordered, NOT a latch — serializing
// durable I/O is its job.
type Store struct {
	mu  sync.Mutex //tango:lock-order store-lock
	f   *os.File
	buf []byte
}

func (s *Store) ReadPage(n int) []byte     { return nil }
func (s *Store) WritePage(n int, b []byte) {}
func (s *Store) Sync()                     {}
func (s *Store) Append(b []byte)           { s.buf = append(s.buf, b...) }

// Pool is a frame-table latch.
type Pool struct {
	mu    sync.Mutex //tango:lock-order frame latch
	pages map[int][]byte
}

// badReadUnderLatch does page I/O inside the latch.
func (p *Pool) badReadUnderLatch(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pages[0] = s.ReadPage(0) // want `performs blocking store-io`
}

// okReadOutsideLatch releases first.
func (p *Pool) okReadOutsideLatch(s *Store) {
	p.mu.Lock()
	delete(p.pages, 0)
	p.mu.Unlock()
	s.ReadPage(0)
}

// badFileSyncUnderLatch fsyncs while latched.
func (p *Pool) badFileSyncUnderLatch(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s.f.Sync() // want `performs blocking file-io`
}

// badSleepUnderLatch parks the latch holder.
func (p *Pool) badSleepUnderLatch() {
	p.mu.Lock()
	time.Sleep(time.Millisecond) // want `performs blocking sleep`
	p.mu.Unlock()
}

// badSendUnderLatch blocks on a channel while latched.
func (p *Pool) badSendUnderLatch(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch <- 1 // want `performs blocking channel send`
}

// badRecvUnderLatch blocks receiving while latched.
func (p *Pool) badRecvUnderLatch(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	<-ch // want `performs blocking channel receive`
}

// okGuardedSendUnderLatch cannot block: the select has a default.
func (p *Pool) okGuardedSendUnderLatch(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// okGroupCommit holds the latch for the in-memory append only and
// syncs after releasing — the pattern the analyzer exists to protect.
func (p *Pool) okGroupCommit(s *Store, rec []byte) {
	p.mu.Lock()
	s.Append(rec)
	p.mu.Unlock()
	s.Sync()
}

// flushHelper blocks on behalf of its callers.
func flushHelper(s *Store) {
	s.Sync()
}

// badThroughHelper reaches the sync through a call: the effect summary
// charges the call site.
func (p *Pool) badThroughHelper(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	flushHelper(s) // want `calls into blocking wal-sync.*via flushHelper`
}

// okHelperOutsideLatch calls the same helper after releasing.
func (p *Pool) okHelperOutsideLatch(s *Store) {
	p.mu.Lock()
	p.mu.Unlock()
	flushHelper(s)
}

// okBlockingUnderOrderedLock: the store lock is ordered, not a latch;
// blocking under it is its purpose.
func (s *Store) okBlockingUnderOrderedLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Sync()
}

// writeUnlatched is the hand-over-hand eviction shape: it drops the
// caller's latch, writes back, and relocks before returning.
func (p *Pool) writeUnlatched(s *Store) {
	p.mu.Unlock()
	s.WritePage(0, nil)
	p.mu.Lock()
}

// okHandOverHand holds the latch but delegates the write to a helper
// that provably releases it first: the block's Unlocked set covers the
// latch, so no finding.
func (p *Pool) okHandOverHand(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeUnlatched(s)
}

// writeLatched never releases: the same call shape must still report.
func (p *Pool) writeLatched(s *Store) {
	s.WritePage(0, nil)
}

// badNotHandOverHand proves the exemption is earned by the release,
// not by the helper indirection.
func (p *Pool) badNotHandOverHand(s *Store) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeLatched(s) // want `calls into blocking store-io.*writeLatched`
}

// --- Commit-path and snapshot-registry classes ---

// WAL is the wal-sync lock: ordered, NOT a latch — holding it across
// the batch fsync is the group commit's whole point, so lockio must
// stay silent about the barrier under it.
type WAL struct {
	mu sync.Mutex //tango:lock-order walsync
	f  *os.File
}

// okFsyncUnderWALLock: a durability barrier under an ordered (non-
// latch) lock is the designed group-commit shape.
func (w *WAL) okFsyncUnderWALLock() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f.Sync()
}

// Batch is the group-commit admission latch: map/pointer bookkeeping
// only; followers must never wait on the leader's barrier inside it.
type Batch struct {
	mu   sync.Mutex //tango:lock-order groupcommit latch
	done chan struct{}
}

// badWaitUnderAdmissionLatch parks a follower on the leader's barrier
// while still holding the admission latch — no later committer could
// join a batch until the fsync finishes.
func (b *Batch) badWaitUnderAdmissionLatch() {
	b.mu.Lock()
	defer b.mu.Unlock()
	<-b.done // want `performs blocking channel receive`
}

// okFollower snapshots the batch under the latch and waits outside.
func (b *Batch) okFollower() {
	b.mu.Lock()
	done := b.done
	b.mu.Unlock()
	<-done
}

// Reg is the snapshot pin registry leaf latch.
type Reg struct {
	mu   sync.Mutex //tango:lock-order snapreg latch
	pins map[int]int
}

// badDropUnderPinLatch executes a deferred heap drop (store I/O)
// while holding the registry latch.
func (r *Reg) badDropUnderPinLatch(s *Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.WritePage(0, nil) // want `performs blocking store-io`
}

// okCollectThenDrop collects the ready drops under the latch and
// executes them with it released — the unpin protocol.
func (r *Reg) okCollectThenDrop(s *Store) {
	r.mu.Lock()
	delete(r.pins, 1)
	r.mu.Unlock()
	s.WritePage(0, nil)
}

// --- TCP transport classes ---

// Wire is a connection's frame-write lock: ordered, NOT a latch — its
// whole purpose is serializing complete frames onto the socket, so
// blocking network I/O under it is the designed shape (the server's
// tcpConn write lock and the client transport's xmit lock).
type Wire struct {
	mu sync.Mutex //tango:lock-order wire-write
	nc net.Conn
}

// okWriteUnderOrderedLock: frame writes belong under the write lock.
func (w *Wire) okWriteUnderOrderedLock(b []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nc.Write(b)
}

// Mux is a connection's session-attachment latch: map bookkeeping
// only. Socket reads and writes are blocking network I/O — a stalled
// peer would wedge every session multiplexed on the connection.
type Mux struct {
	mu       sync.Mutex //tango:lock-order mux latch
	attached map[uint32]bool
	nc       net.Conn
}

// badWriteUnderLatch writes a frame while holding the latch.
func (m *Mux) badWriteUnderLatch(b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nc.Write(b) // want `performs blocking net-io`
}

// badReadUnderLatch parks the latch holder on a slow peer.
func (m *Mux) badReadUnderLatch(b []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nc.Read(b) // want `performs blocking net-io`
}

// badDialUnderLatch dials (connect handshake = network I/O) latched.
func (m *Mux) badDialUnderLatch() {
	m.mu.Lock()
	defer m.mu.Unlock()
	net.Dial("tcp", "127.0.0.1:0") // want `performs blocking net-io`
}

// badRefuseUnderLatch closes a connection it refuses while still
// holding the latch — the mutant only lockio catches (DESIGN.md §4c).
func (m *Mux) badRefuseUnderLatch(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.attached == nil {
		_ = c.Close() // want `performs blocking net-io`
		return false
	}
	return true
}

// okSnapshotThenWrite snapshots the conn under the latch and does the
// I/O with it released — the detach/notify protocol.
func (m *Mux) okSnapshotThenWrite(b []byte) {
	m.mu.Lock()
	nc := m.nc
	m.mu.Unlock()
	nc.Write(b)
}
