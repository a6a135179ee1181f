// Snapshot-isolated reads.
//
// A Snapshot pins one published catalogVersion: every table lookup,
// plan, and scan made through it sees exactly the state at the
// snapshot's commit sequence — catalog, per-table visibility bounds,
// index set, and statistics epoch — no matter how many commits, bulk
// loads, or checkpoints land meanwhile. Readers never take the writer
// lock, so an in-flight T^D load cannot block them.
//
// The pin registry is the only coordination point between readers and
// DROP TABLE: a dropped table's heap pages are reclaimed when the last
// snapshot predating the drop is released. A crash before a deferred
// drop executes leaves a permanent table's file orphaned; recovery's
// catalog bootstrap skips files the catalog no longer references, so
// the orphan is harmless. A temp table's file is unlogged: it vanishes.
package engine

import (
	"math"
	"sync"
	"sync/atomic"

	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/storage"
)

// pinRegistry tracks open snapshots per commit sequence and the drops
// deferred behind them. snapreg is a leaf latch: map bookkeeping
// only; deferred heap drops execute after it is released.
type pinRegistry struct {
	mu       sync.Mutex //tango:lock-order snapreg latch
	pins     map[uint64]int
	deferred []deferredDrop
}

type deferredDrop struct {
	seq  uint64 // commit sequence that published the drop
	heap *storage.HeapFile
}

func (r *pinRegistry) init() {
	r.pins = map[uint64]int{}
}

// pin atomically reads the current version via load and registers a
// pin on its sequence. Loading inside the latch closes the race with
// deferDrop: a version observed here is either pinned before the
// dropper scans the registry, or it already postdates the drop.
func (r *pinRegistry) pin(load func() *catalogVersion) *catalogVersion {
	r.mu.Lock()
	v := load()
	r.pins[v.seq]++
	r.mu.Unlock()
	return v
}

// unpin drops one pin and returns any heap drops that became
// executable. The caller runs them with no locks held.
func (r *pinRegistry) unpin(seq uint64) []*storage.HeapFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.pins[seq]; n <= 1 {
		delete(r.pins, seq)
	} else {
		r.pins[seq] = n - 1
	}
	return r.collectLocked()
}

// deferDrop registers a drop published at seq and returns the drops
// already executable (possibly including this one, when no snapshot
// predates it).
func (r *pinRegistry) deferDrop(seq uint64, heap *storage.HeapFile) []*storage.HeapFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deferred = append(r.deferred, deferredDrop{seq: seq, heap: heap})
	return r.collectLocked()
}

// collectLocked removes and returns every deferred drop that no
// pinned snapshot predates. Caller holds mu.
func (r *pinRegistry) collectLocked() []*storage.HeapFile {
	if len(r.deferred) == 0 {
		return nil
	}
	min := uint64(math.MaxUint64)
	for s := range r.pins {
		if s < min {
			min = s
		}
	}
	var ready []*storage.HeapFile
	keep := r.deferred[:0]
	for _, d := range r.deferred {
		if d.seq <= min {
			ready = append(ready, d.heap)
		} else {
			keep = append(keep, d)
		}
	}
	r.deferred = keep
	return ready
}

func (r *pinRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.pins {
		n += c
	}
	return n
}

// Snapshot pins the current published version for a consistent read.
// Release it when the statement finishes; Release is idempotent.
func (db *DB) Snapshot() *Snapshot {
	v := db.pins.pin(db.cat.Load)
	return &Snapshot{db: db, v: v}
}

// SnapshotsOpen returns the number of unreleased snapshots — a
// harness leak check, like Pinned on the buffer pool.
func (db *DB) SnapshotsOpen() int { return db.pins.count() }

// Snapshot is one pinned catalog+data version. All reads through it
// are repeatable and never block behind writers.
type Snapshot struct {
	db       *DB
	v        *catalogVersion
	released atomic.Bool
}

// Seq returns the pinned commit sequence.
func (s *Snapshot) Seq() uint64 { return s.v.seq }

// MetaEpoch returns the pinned version's metadata epoch.
func (s *Snapshot) MetaEpoch() uint64 { return s.v.meta }

// Table resolves a table inside the snapshot.
func (s *Snapshot) Table(name string) (*Table, error) { return s.v.table(name) }

// TableNames lists the snapshot's tables (unsorted order of the map
// is hidden by the small fixed formatting callers apply; the DB-level
// TableNames sorts).
func (s *Snapshot) TableNames() []string {
	names := make([]string, 0, len(s.v.tables))
	for _, t := range s.v.tables {
		names = append(names, t.Name)
	}
	return names
}

// Query parses and plans a SELECT against the snapshot. The returned
// iterator does NOT release the snapshot on Close; the caller owns
// the pin (servers hold one snapshot per cursor).
func (s *Snapshot) Query(sql string) (rel.Iterator, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return s.db.planSelect(s.v, sel)
}

// QueryStmt plans an already-parsed SELECT against the snapshot.
func (s *Snapshot) QueryStmt(sel *sqlast.SelectStmt) (rel.Iterator, error) {
	return s.db.planSelect(s.v, sel)
}

// Release unpins the snapshot and executes any heap drops it was
// holding back. Idempotent and goroutine-safe.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, h := range s.db.pins.unpin(s.v.seq) {
		h.Drop()
	}
}

// snapIter binds an iterator to the snapshot it plans against:
// closing the iterator releases the pin. It backs the DB-level Query
// convenience entry points.
type snapIter struct {
	rel.Input
	snap *Snapshot
}

func (it *snapIter) Close() error {
	err := it.Input.Close()
	it.snap.Release()
	return err
}
