// Package engine implements the conventional relational DBMS that the
// temporal middleware runs on top of: catalog, storage-backed tables,
// secondary indexes, an SQL executor (scans, filters, joins, grouping,
// sorting, set operations), and ANALYZE statistics. It plays the role
// Oracle plays in the paper — a full-featured but temporally ignorant
// query processor.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/btree"
	"tango/internal/meta"
	"tango/internal/storage"
	"tango/internal/telemetry"
	"tango/internal/types"
)

// DB is one database instance: a simulated disk, a buffer pool, and a
// versioned catalog. The engine is multi-session safe under snapshot
// isolation: readers pin an immutable catalogVersion (catalog plus
// per-table visibility bounds — the data snapshot) and never take the
// writer lock, so a T^D bulk load or checkpoint in progress cannot
// block them. Writers serialize on wmu, mutate storage, then publish
// a new version with a bumped commit sequence; durability (the WAL
// group-commit fsync) is awaited after the publish, outside wmu, so
// concurrent sessions' commits share fsyncs.
//
// The catalog lock sits at the top of the storage hierarchy: DDL holds
// it across page allocation (the pool latch) and the durability fsync
// (the store lock), so it is ordered, not a latch.
//
//tango:lock-order catalog < bufferpool < store
//tango:lock-order catalog < walsync
//tango:lock-order catalog < snapreg

type DB struct {
	disk storage.Store
	fd   *storage.FileDisk // non-nil when the store is durable (OpenAt)
	pool *storage.BufferPool

	metrics atomic.Pointer[telemetry.Registry]

	wmu sync.Mutex //tango:lock-order catalog
	// cat is the published catalog version; readers Load it lock-free,
	// the wmu holder replaces it copy-on-write.
	cat  atomic.Pointer[catalogVersion]
	pins pinRegistry

	// commitHook, when set (SetCommitHook, tests only), observes every
	// publish; it runs under wmu, so invocations are totally ordered by
	// commit sequence.
	commitHook func(seq uint64, table, op string)

	commits      atomic.Int64 // publishes awaited to durability
	commitWaitNS atomic.Int64 // cumulative time spent in awaitDurable
}

// catalogVersion is one immutable published state of the database:
// the commit sequence (the "stats epoch" — it also advances on
// ANALYZE), the metadata epoch and the table set. Table values reached
// through a version are themselves immutable; a writer clones any
// table it changes.
type catalogVersion struct {
	seq uint64
	// meta is the metadata epoch: it advances when a base table's
	// schema, index set or statistics change (CREATE TABLE, DROP
	// TABLE, CREATE INDEX, and an ANALYZE that replaces statistics the
	// table has held), and never on a load or an insert, nor for a
	// TempPrefix table. A client may keep schemas and statistics read
	// under one epoch until it moves. A new table's first ANALYZE
	// leaves it alone: no reader can hold statistics the table never
	// had (its CREATE advanced the epoch), and the server runs that
	// ANALYZE inside a statistics read, which must not make stale the
	// plan it is read for.
	meta   uint64
	tables map[string]*Table // keyed by upper-case name
}

// TempPrefix is the naming prefix of the middleware's transfer temp
// tables: their DDL and statistics do not advance the metadata epoch,
// and on a durable DB their files are unlogged (see logged).
const TempPrefix = "TMP_TANGO_"

// temp reports whether name is a transfer temp table's.
func temp(name string) bool { return strings.HasPrefix(key(name), TempPrefix) }

func (v *catalogVersion) table(name string) (*Table, error) {
	t, ok := v.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", name)
	}
	return t, nil
}

// Table is a catalog entry. Instances published in a catalogVersion
// are immutable — pages/tailSlots fix which heap prefix the version
// sees, Stats is the version's statistics epoch — while Heap, the
// Indexes map, and the trees it holds may be shared across versions
// (index entries past the visibility bound are filtered per reader).
type Table struct {
	Name    string
	Schema  types.Schema
	Heap    *storage.HeapFile
	Indexes map[string]*btree.Tree // keyed by upper-case column name
	Stats   *meta.TableStats       // nil until ANALYZE
	// analyzed records that statistics have been published for the
	// table, even if a load has cleared them since.
	analyzed bool

	// Visibility bound: rows at rid with rid.Page < pages-1, or
	// rid.Page == pages-1 and rid.Slot < tailSlots, belong to this
	// version. The heap is append-only, so the pair identifies an
	// exact prefix.
	pages     int32
	tailSlots int32
}

// clone returns a shallow copy sharing Heap and the Indexes map; the
// writer adjusts what changed before publishing it.
func (t *Table) clone() *Table {
	nt := *t
	return &nt
}

// visible reports whether the record lies inside the version's bound.
func (t *Table) visible(rid storage.RecordID) bool {
	if rid.Page < t.pages-1 {
		return true
	}
	return rid.Page == t.pages-1 && rid.Slot < t.tailSlots
}

// cloneTables shallow-copies the version's table map for a writer
// about to publish.
func cloneTables(m map[string]*Table) map[string]*Table {
	next := make(map[string]*Table, len(m)+1)
	for k, t := range m {
		next[k] = t
	}
	return next
}

// Config tunes a DB instance.
type Config struct {
	// BufferPoolPages is the buffer pool capacity; 0 means a default of
	// 2048 pages (16 MB).
	BufferPoolPages int
	// CheckpointBytes overrides the durable store's WAL-size threshold
	// for automatic checkpoints (OpenAt only); 0 keeps the storage
	// default, negative disables automatic checkpoints.
	CheckpointBytes int64
}

// Open creates an empty in-memory database (the test and benchmark
// default — volatile by design). Use OpenAt for a durable,
// crash-recoverable instance.
func Open(cfg Config) *DB {
	return OpenWith(storage.NewDisk(), cfg)
}

// OpenWith creates an in-memory-style database over a caller-provided
// store. Harnesses wrap stores to script fault and pause points — the
// reader-not-blocked-by-load proof parks a bulk load inside an
// AppendPage this way.
func OpenWith(store storage.Store, cfg Config) *DB {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 2048
	}
	db := &DB{
		disk: store,
		pool: storage.NewBufferPool(store, cfg.BufferPoolPages),
	}
	db.cat.Store(&catalogVersion{seq: 1, meta: 1, tables: map[string]*Table{}})
	db.pins.init()
	return db
}

// Disk exposes the underlying store for I/O accounting in experiments.
func (db *DB) Disk() storage.Store { return db.disk }

// Pool exposes the buffer pool for hit-ratio accounting.
func (db *DB) Pool() *storage.BufferPool { return db.pool }

// CommitSeq returns the current published commit sequence.
func (db *DB) CommitSeq() uint64 { return db.cat.Load().seq }

// CommitStats reports how many publishes were awaited to durability
// and the cumulative wall time spent waiting on the group-commit
// barrier.
func (db *DB) CommitStats() (commits int64, wait time.Duration) {
	return db.commits.Load(), time.Duration(db.commitWaitNS.Load())
}

// SetCommitHook installs fn to observe every publish (seq, table, op)
// under the writer lock — calls arrive in commit-sequence order.
// Test-only: the property harness records the serial history here.
func (db *DB) SetCommitHook(fn func(seq uint64, table, op string)) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	db.commitHook = fn
}

// SetMetrics attaches a telemetry registry: every physical operator of
// subsequent queries is instrumented (per-operator timing, row, and
// Next-call series under engine="dbms"), and the storage counters are
// exported as gauges (disk reads/writes, buffer-pool hits/misses/hit
// ratio, commit sequence, open snapshots, commit waits, WAL fsyncs).
// A nil registry disables instrumentation.
func (db *DB) SetMetrics(reg *telemetry.Registry) {
	db.metrics.Store(reg)
	if reg == nil {
		return
	}
	reg.GaugeFunc("tango_disk_reads", nil, func() float64 {
		return float64(db.disk.Snapshot().Reads)
	})
	reg.GaugeFunc("tango_disk_writes", nil, func() float64 {
		return float64(db.disk.Snapshot().Writes)
	})
	reg.GaugeFunc("tango_bufferpool_hits", nil, func() float64 {
		return float64(db.pool.Snapshot().Hits)
	})
	reg.GaugeFunc("tango_bufferpool_misses", nil, func() float64 {
		return float64(db.pool.Snapshot().Misses)
	})
	reg.GaugeFunc("tango_bufferpool_evictions", nil, func() float64 {
		return float64(db.pool.Snapshot().Evictions)
	})
	reg.GaugeFunc("tango_bufferpool_hit_ratio", nil, func() float64 {
		return db.pool.Snapshot().HitRatio()
	})
	reg.GaugeFunc("tango_commit_seq", nil, func() float64 {
		return float64(db.CommitSeq())
	})
	reg.GaugeFunc("tango_snapshots_open", nil, func() float64 {
		return float64(db.SnapshotsOpen())
	})
	reg.GaugeFunc("tango_commits_total", nil, func() float64 {
		return float64(db.commits.Load())
	})
	reg.GaugeFunc("tango_commit_wait_seconds_total", nil, func() float64 {
		return time.Duration(db.commitWaitNS.Load()).Seconds()
	})
	if db.fd != nil {
		reg.GaugeFunc("tango_wal_fsyncs_total", nil, func() float64 {
			_, _, fsyncs := db.fd.GroupCommitStats()
			return float64(fsyncs)
		})
		reg.GaugeFunc("tango_group_commit_batches_total", nil, func() float64 {
			_, batches, _ := db.fd.GroupCommitStats()
			return float64(batches)
		})
	}
}

// Metrics returns the attached registry (nil when disabled).
func (db *DB) Metrics() *telemetry.Registry { return db.metrics.Load() }

func key(name string) string { return strings.ToUpper(name) }

// publishLocked installs the next catalog version. Caller holds wmu.
// The hook runs before the version becomes loadable, so an observer
// pinning seq S always finds the history complete through S.
func (db *DB) publishLocked(tables map[string]*Table, table, op string) uint64 {
	cur := db.cat.Load()
	seq, meta := cur.seq+1, cur.meta
	k := key(table)
	changed := op == "create" || op == "drop" || op == "createindex" || op == "analyze" && cur.tables[k].analyzed
	if changed && !temp(k) {
		meta++
	}
	if db.commitHook != nil {
		db.commitHook(seq, table, op)
	}
	db.cat.Store(&catalogVersion{seq: seq, meta: meta, tables: tables})
	return seq
}

// MetaEpoch returns the current metadata epoch (see catalogVersion).
// Lock-free.
func (db *DB) MetaEpoch() uint64 { return db.cat.Load().meta }

// errExists is CreateTable's failure for a name already taken; it is
// checked under the catalog latch, so of two racing creates one fails.
var errExists = errors.New("already exists")

// CreateTable adds a new empty table.
func (db *DB) CreateTable(name string, schema types.Schema) (*Table, error) {
	db.wmu.Lock()
	cur := db.cat.Load()
	k := key(name)
	if _, ok := cur.tables[k]; ok {
		db.wmu.Unlock()
		return nil, fmt.Errorf("engine: table %s %w", name, errExists)
	}
	var heap *storage.HeapFile
	if db.fd == nil || !temp(name) {
		heap = storage.NewHeapFile(db.pool)
	} else {
		id, err := db.fd.CreateTempFile()
		if err != nil {
			db.wmu.Unlock()
			return nil, err
		}
		heap = storage.OpenHeapFile(db.pool, id)
	}
	t := &Table{Name: name, Schema: schema, Heap: heap, Indexes: map[string]*btree.Tree{}}
	next := cloneTables(cur.tables)
	next[k] = t
	if err := db.stageDurableLocked(name, next); err != nil {
		db.wmu.Unlock()
		return nil, err
	}
	db.publishLocked(next, t.Name, "create")
	db.wmu.Unlock()
	return t, db.awaitDurable(name)
}

// DropTable removes a table. With ifExists, dropping a missing table
// is not an error. The heap's pages are reclaimed only once no open
// snapshot predates the drop; until then readers pinned before the
// drop keep scanning it.
func (db *DB) DropTable(name string, ifExists bool) error {
	db.wmu.Lock()
	cur := db.cat.Load()
	k := key(name)
	t, ok := cur.tables[k]
	if !ok {
		db.wmu.Unlock()
		if ifExists {
			return nil
		}
		return fmt.Errorf("engine: no table %s", name)
	}
	next := cloneTables(cur.tables)
	delete(next, k)
	if err := db.stageDurableLocked(name, next); err != nil {
		db.wmu.Unlock()
		return err
	}
	seq := db.publishLocked(next, t.Name, "drop")
	for _, h := range db.pins.deferDrop(seq, t.Heap) {
		h.Drop()
	}
	db.wmu.Unlock()
	return db.awaitDurable(name)
}

// Table returns the catalog entry for name in the current published
// version, or an error. Lock-free.
func (db *DB) Table(name string) (*Table, error) {
	return db.cat.Load().table(name)
}

// TableEpoch is Table plus the metadata epoch of the version it was
// read from. Lock-free.
func (db *DB) TableEpoch(name string) (*Table, uint64, error) {
	v := db.cat.Load()
	t, err := v.table(name)
	return t, v.meta, err
}

// TableNames lists tables of the current published version in sorted
// order. Lock-free.
func (db *DB) TableNames() []string {
	v := db.cat.Load()
	names := make([]string, 0, len(v.tables))
	for _, t := range v.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// Insert adds one tuple to the table, maintaining indexes, and
// publishes a version whose bound covers the new row. The tuple must
// match the table schema in arity; values are stored as given.
func (db *DB) Insert(name string, tuple types.Tuple) error {
	db.wmu.Lock()
	cur := db.cat.Load()
	t, ok := cur.tables[key(name)]
	if !ok {
		db.wmu.Unlock()
		return fmt.Errorf("engine: no table %s", name)
	}
	if len(tuple) != t.Schema.Len() {
		db.wmu.Unlock()
		return fmt.Errorf("engine: %s expects %d values, got %d", name, t.Schema.Len(), len(tuple))
	}
	rid, err := t.Heap.Insert(tuple)
	if err != nil {
		db.wmu.Unlock()
		return err
	}
	for col, idx := range t.Indexes {
		i := t.Schema.ColumnIndex(col)
		if i >= 0 {
			idx.Insert(tuple[i], rid)
		}
	}
	nt := t.clone()
	nt.Stats = nil // statistics are stale until the next ANALYZE
	// Pages fill strictly in order, so the new row's rid is the
	// table's high-water mark.
	nt.pages, nt.tailSlots = rid.Page+1, rid.Slot+1
	next := cloneTables(cur.tables)
	next[key(name)] = nt
	if err := db.stageDurableLocked(name, nil); err != nil {
		db.wmu.Unlock()
		return err
	}
	db.publishLocked(next, t.Name, "insert")
	db.wmu.Unlock()
	return db.awaitDurable(name)
}

// BulkLoad appends tuples through the direct-path loader (the paper's
// SQL*Loader analogue). Indexes are rebuilt afterwards into fresh
// trees on a cloned table, so snapshot readers pinned before the load
// keep their old index view; the loaded pages themselves lie past
// every published bound until the final publish.
func (db *DB) BulkLoad(name string, tuples []types.Tuple) error {
	db.wmu.Lock()
	cur := db.cat.Load()
	t, ok := cur.tables[key(name)]
	if !ok {
		db.wmu.Unlock()
		return fmt.Errorf("engine: no table %s", name)
	}
	for _, tp := range tuples {
		if len(tp) != t.Schema.Len() {
			db.wmu.Unlock()
			return fmt.Errorf("engine: %s expects %d values, got %d", name, t.Schema.Len(), len(tp))
		}
	}
	// A logged table's load is bracketed so that a crash before the
	// commit record becomes durable rolls the table back to its pre-load
	// state; a temp table's load logs nothing, as no restart sees the
	// table. A load that fails before its commit
	// rolls back the same way at once: the heap is cut back to its
	// pre-load pages (on a FileDisk the cut also ends the open load), so
	// no later load's bound or index build publishes the failed rows.
	before := t.Heap.NumPages()
	fail := func(err error) error {
		err = errors.Join(err, t.Heap.Truncate(before))
		db.wmu.Unlock()
		return err
	}
	logged := db.logged(name)
	if logged {
		if err := db.fd.BeginLoad(t.Heap.File(), t.Name); err != nil {
			db.wmu.Unlock()
			return err
		}
	}
	if err := t.Heap.BulkLoad(tuples); err != nil {
		return fail(err)
	}
	nt := t.clone()
	nt.Indexes = make(map[string]*btree.Tree, len(t.Indexes))
	for col := range t.Indexes {
		idx, err := buildIndexTree(t.Heap, t.Schema, col)
		if err != nil {
			return fail(err)
		}
		nt.Indexes[col] = idx
	}
	nt.Stats = nil
	nt.pages, nt.tailSlots = t.Heap.Bound()
	if logged {
		// Page images must precede the commit record in the WAL.
		if err := db.pool.FlushAll(); err != nil {
			return fail(err)
		}
		if err := db.fd.CommitLoad(t.Heap.File()); err != nil {
			return fail(err)
		}
	}
	next := cloneTables(cur.tables)
	next[key(name)] = nt
	if err := db.stageDurableLocked(name, nil); err != nil {
		db.wmu.Unlock()
		return err
	}
	db.publishLocked(next, t.Name, "load")
	db.wmu.Unlock()
	return db.awaitDurable(name)
}

// CreateIndex builds a secondary B+-tree index on one column.
func (db *DB) CreateIndex(table, column string) error {
	db.wmu.Lock()
	cur := db.cat.Load()
	t, ok := cur.tables[key(table)]
	if !ok {
		db.wmu.Unlock()
		return fmt.Errorf("engine: no table %s", table)
	}
	if t.Schema.ColumnIndex(column) < 0 {
		db.wmu.Unlock()
		return fmt.Errorf("engine: no column %s in %s", column, table)
	}
	idx, err := buildIndexTree(t.Heap, t.Schema, strings.ToUpper(column))
	if err != nil {
		db.wmu.Unlock()
		return err
	}
	nt := t.clone()
	nt.Indexes = make(map[string]*btree.Tree, len(t.Indexes)+1)
	for col, old := range t.Indexes {
		nt.Indexes[col] = old
	}
	nt.Indexes[strings.ToUpper(column)] = idx
	next := cloneTables(cur.tables)
	next[key(table)] = nt
	if err := db.stageDurableLocked(table, next); err != nil {
		db.wmu.Unlock()
		return err
	}
	db.publishLocked(next, t.Name, "createindex")
	db.wmu.Unlock()
	return db.awaitDurable(table)
}

// buildIndexTree scans the heap and builds a fresh tree over column
// columnKey (upper-case).
func buildIndexTree(heap *storage.HeapFile, schema types.Schema, columnKey string) (*btree.Tree, error) {
	i := schema.ColumnIndex(columnKey)
	if i < 0 {
		return nil, fmt.Errorf("engine: no column %s", columnKey)
	}
	idx := btree.New()
	err := heap.Scan([]int{i}, func(rid storage.RecordID, tuple types.Tuple) bool {
		idx.Insert(tuple[0], rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// Index returns the index on the column, or nil.
func (t *Table) Index(column string) *btree.Tree {
	return t.Indexes[strings.ToUpper(column)]
}

// Analyze recomputes table and column statistics; histogramBuckets > 0
// additionally builds height-balanced histograms on every orderable
// column. The result is published as a new catalog version — the
// commit sequence doubles as the statistics epoch, so a statement that
// pinned its snapshot before the ANALYZE keeps planning against the
// old statistics.
func (db *DB) Analyze(name string, histogramBuckets int) (*meta.TableStats, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	cur := db.cat.Load()
	t, ok := cur.tables[key(name)]
	if !ok {
		return nil, fmt.Errorf("engine: no table %s", name)
	}
	stats := &meta.TableStats{
		Table:   t.Name,
		Columns: map[string]*meta.ColumnStats{},
	}
	ncols := t.Schema.Len()
	values := make([][]types.Value, ncols)
	var card, bytes int64
	err := t.Heap.Scan(nil, func(_ storage.RecordID, tuple types.Tuple) bool {
		card++
		bytes += int64(tuple.ByteSize())
		for i, v := range tuple {
			if i < ncols {
				values[i] = append(values[i], v)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	stats.Cardinality = card
	stats.Blocks = int64(t.Heap.NumPages())
	if card > 0 {
		stats.AvgTupleSize = float64(bytes) / float64(card)
	}
	var kept types.Arena // the min and max strings, which outlive the scan
	var distinct types.KeyTable
	defer distinct.Free()
	for i, col := range t.Schema.Cols {
		cs := &meta.ColumnStats{Name: col.Name}
		distinct.Reset(1)
		for j, v := range values[i] {
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			distinct.Insert(values[i][j : j+1])
			if v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat()) {
				continue // NaN is a distinct value, but bounds nothing
			}
			if cs.Min.IsNull() || types.Less(v, cs.Min) {
				cs.Min = v
			}
			if cs.Max.IsNull() || types.Less(cs.Max, v) {
				cs.Max = v
			}
		}
		cs.Min, cs.Max = kept.Value(cs.Min), kept.Value(cs.Max)
		cs.Distinct = int64(distinct.Len())
		if histogramBuckets > 0 && col.Kind != types.KindString && col.Kind != types.KindBool {
			cs.Histogram = meta.BuildHistogram(values[i], histogramBuckets)
		}
		if idx := t.Index(col.Name); idx != nil {
			cs.HasIndex = true
			cs.ClusteringFactor = int64(idx.ClusteringFactor())
		}
		stats.Columns[strings.ToUpper(col.Name)] = cs
	}
	nt := t.clone()
	nt.Stats, nt.analyzed = stats, true
	// ANALYZE under wmu sees the whole heap; the published bound moves
	// with it so statistics and data stay in step.
	nt.pages, nt.tailSlots = t.Heap.Bound()
	next := cloneTables(cur.tables)
	next[key(name)] = nt
	db.publishLocked(next, t.Name, "analyze")
	return stats, nil
}
