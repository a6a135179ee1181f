// Package latchorder seeds violations of the declared lock hierarchy
// for the latchorder analyzer: ordered nesting is fine, inversions and
// class re-entry are not, and both must be caught through helper calls
// via the interprocedural effect summaries.
package latchorder

import "sync"

//tango:lock-order catalog < pool < store

// DB guards schema metadata.
type DB struct {
	cmu sync.RWMutex //tango:lock-order catalog
}

// Pool guards in-memory frames; a latch, though latchorder does not
// care — only lockio distinguishes latches.
type Pool struct {
	mu sync.Mutex //tango:lock-order pool latch
}

// Store serializes durable I/O.
type Store struct {
	mu sync.Mutex //tango:lock-order store
}

// Side is declared but deliberately unrelated to the chain: the order
// is partial, and incomparable classes are unconstrained.
type Side struct {
	mu sync.Mutex //tango:lock-order side
}

type sys struct {
	db   *DB
	pool *Pool
	st   *Store
}

// okNested acquires along the declared order.
func (s *sys) okNested() {
	s.db.cmu.Lock()
	defer s.db.cmu.Unlock()
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
}

// okSequential releases before acquiring against the order.
func (s *sys) okSequential() {
	s.st.mu.Lock()
	s.st.mu.Unlock()
	s.db.cmu.Lock()
	s.db.cmu.Unlock()
}

// badInversion acquires catalog while pool is held: catalog < pool.
func (s *sys) badInversion() {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	s.db.cmu.Lock() // want `acquires lock class "catalog" while holding "pool"`
	s.db.cmu.Unlock()
}

// badReentry re-enters a held class — a self-deadlock on the same
// instance and an undeclared nesting on another.
func (s *sys) badReentry(other *Pool) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	other.mu.Lock() // want `re-enters lock class "pool"`
	other.mu.Unlock()
}

// loadMeta acquires catalog on behalf of its callers.
func (s *sys) loadMeta() {
	s.db.cmu.RLock()
	defer s.db.cmu.RUnlock()
}

// badThroughHelper holds store and calls a helper whose summary
// acquires catalog: the inversion is charged at the call site.
func (s *sys) badThroughHelper() {
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	s.loadMeta() // want `acquires lock class "catalog" while holding "store".*via`
}

// okThroughHelper calls the same helper with nothing held.
func (s *sys) okThroughHelper() {
	s.loadMeta()
}

// okUnrelated holds an incomparable class: no declared relation, no
// finding.
func (s *sys) okUnrelated(side *Side) {
	side.mu.Lock()
	defer side.mu.Unlock()
	s.db.cmu.Lock()
	s.db.cmu.Unlock()
}

// Bad carries a malformed directive: class names are lower-case.
type Bad struct {
	mu sync.Mutex //tango:lock-order NotAClass // want `malformed //tango:lock-order directive`
}

func use(b *Bad) { b.mu.Lock(); b.mu.Unlock() }

// dropAndRelock releases the caller's pool latch around slow work and
// reacquires it: restoring the caller's hold, not a fresh acquisition.
func (p *Pool) dropAndRelock() {
	p.mu.Unlock()
	p.mu.Lock()
}

// okHandOverHand calls the drop/relock helper with the latch held; the
// reacquire inside must not count as class re-entry.
func (p *Pool) okHandOverHand() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropAndRelock()
}

// --- Commit-path classes of the versioned store ---
//
// The group-commit admission latch may only be taken under the WAL
// sync lock, and the snapshot pin registry is a leaf under catalog.

//tango:lock-order walsync < groupcommit
//tango:lock-order walsync < store
//tango:lock-order catalog < snapreg

// WAL serializes durability barriers; held across fsync by design.
type WAL struct {
	mu sync.Mutex //tango:lock-order walsync
}

// Batch is the group-commit admission latch.
type Batch struct {
	mu sync.Mutex //tango:lock-order groupcommit latch
}

// Reg is the snapshot pin registry.
type Reg struct {
	mu sync.Mutex //tango:lock-order snapreg latch
}

// okCommitPath nests the commit path in declared order: the leader
// takes the sync lock, then closes the batch under the admission
// latch.
func okCommitPath(w *WAL, b *Batch) {
	w.mu.Lock()
	defer w.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// badCommitInversion takes the sync lock under the admission latch —
// a follower would deadlock against the leader.
func badCommitInversion(w *WAL, b *Batch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	w.mu.Lock() // want `acquires lock class "walsync" while holding "groupcommit"`
	w.mu.Unlock()
}

// Disk holds both storage locks; the declared order is walsync <
// store.
type Disk struct {
	fmu sync.Mutex //tango:lock-order store
	smu sync.Mutex //tango:lock-order walsync
}

// Checkpoint takes the store lock before the sync lock — the swapped
// order only latchorder catches (DESIGN.md §4c): it deadlocks against a
// group-commit leader that holds smu and waits for fmu.
func (d *Disk) Checkpoint() {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	d.smu.Lock() // want `acquires lock class "walsync" while holding "store"`
	defer d.smu.Unlock()
}

// badCatalogUnderSnapReg pins a version while holding the registry
// leaf: catalog < snapreg, so the writer lock must come first.
func badCatalogUnderSnapReg(db *DB, r *Reg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	db.cmu.Lock() // want `acquires lock class "catalog" while holding "snapreg"`
	db.cmu.Unlock()
}

// okPinUnderCatalog is the deferred-drop protocol: the dropper holds
// the catalog writer lock and registers the drop in the registry.
func okPinUnderCatalog(db *DB, r *Reg) {
	db.cmu.Lock()
	defer db.cmu.Unlock()
	r.mu.Lock()
	r.mu.Unlock()
}
