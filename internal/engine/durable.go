// Durable-engine support: catalog persistence and the restart path.
//
// A DB opened with OpenAt sits on a storage.FileDisk. The catalog is
// serialized to JSON and stored under the "catalog" key of the store's
// durable metadata — the storage layer stays ignorant of catalog
// formats, the engine stays ignorant of WAL formats. Every catalog
// mutation and every write to a permanent table flushes the buffer pool
// (logging page images) and waits on the WAL group-commit barrier; bulk
// loads are bracketed by BeginLoad/CommitLoad so a crash mid-load rolls
// the table back. A TempPrefix table (a T^D's target) lives on an
// unlogged file that no catalog document names: its writes commit
// nothing, and no restart sees it. On restart, OpenAt recovers the
// store, decodes the catalog, reattaches heap files, and rebuilds the
// in-memory B+-tree indexes by scanning the recovered heaps.
//
//tango:durability
package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"tango/internal/btree"
	"tango/internal/storage"
	"tango/internal/types"
)

// catalogEntry is the persisted form of one Table.
type catalogEntry struct {
	Name    string
	Schema  types.Schema
	File    storage.FileID
	Indexes []string // indexed column keys (upper-case)
}

// catalogDoc is the persisted catalog.
type catalogDoc struct {
	Tables []catalogEntry
}

// OpenAt opens (creating if needed) a durable database in dir:
// storage recovery (WAL redo, checksum verification, load rollback)
// followed by catalog bootstrap and index rebuild. The returned stats
// describe what recovery did; the server exports them as counters and
// a startup-trace span.
func OpenAt(dir string, cfg Config) (*DB, *storage.RecoveryStats, error) {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 2048
	}
	fd, stats, err := storage.Recover(dir)
	if err != nil {
		return nil, stats, err
	}
	if cfg.CheckpointBytes != 0 {
		fd.CheckpointBytes = cfg.CheckpointBytes
	}
	db := &DB{
		disk: fd,
		fd:   fd,
		pool: storage.NewBufferPool(fd, cfg.BufferPoolPages),
	}
	db.cat.Store(&catalogVersion{seq: 1, meta: 1, tables: map[string]*Table{}})
	db.pins.init()
	if err := db.bootstrapCatalog(); err != nil {
		return nil, stats, err
	}
	return db, stats, nil
}

// FileDisk returns the durable store backing the DB, or nil for an
// in-memory instance. Harnesses use it to arm crash scripts.
func (db *DB) FileDisk() *storage.FileDisk { return db.fd }

// Durable reports whether the DB survives restarts.
func (db *DB) Durable() bool { return db.fd != nil }

// Close makes the database durable and releases it: flush the pool,
// checkpoint, close the store. In-memory instances close trivially.
// The writer lock is held so no commit is caught mid-publish.
func (db *DB) Close() error {
	if db.fd == nil {
		return nil
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.fd.Close()
}

// Checkpoint forces an incremental checkpoint of the durable store.
// Snapshot readers are not blocked: they hold no lock the checkpoint
// needs, and the pool flush copies page images under pins.
func (db *DB) Checkpoint() error {
	if db.fd == nil {
		return nil
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	return db.fd.Checkpoint()
}

// bootstrapCatalog decodes the persisted catalog and reattaches every
// surviving table: heap files by ID, indexes rebuilt by heap scan.
// Tables whose heap file did not survive recovery (a creation whose
// commit never became durable) are skipped. A TempPrefix table (only a
// catalog written before temp tables were unlogged names one) is
// dropped with its file, unpublished.
func (db *DB) bootstrapCatalog() error {
	doc, ok := db.fd.Meta("catalog")
	if !ok {
		return nil
	}
	var cat catalogDoc
	if err := json.Unmarshal([]byte(doc), &cat); err != nil {
		return fmt.Errorf("engine: corrupt persisted catalog: %w", err)
	}
	tables := map[string]*Table{}
	stale := false
	for _, e := range cat.Tables {
		if temp(e.Name) {
			db.fd.DropFile(e.File)
			stale = true
			continue
		}
		if !db.fd.HasFile(e.File) {
			continue
		}
		t := &Table{
			Name:    e.Name,
			Schema:  e.Schema,
			Heap:    storage.OpenHeapFile(db.pool, e.File),
			Indexes: map[string]*btree.Tree{},
		}
		for _, col := range e.Indexes {
			idx, err := buildIndexTree(t.Heap, t.Schema, col)
			if err != nil {
				return fmt.Errorf("engine: rebuild index %s(%s): %w", e.Name, col, err)
			}
			t.Indexes[col] = idx
		}
		t.pages, t.tailSlots = t.Heap.Bound()
		tables[key(e.Name)] = t
	}
	if stale {
		if err := db.saveCatalog(tables); err != nil {
			return err
		}
	}
	db.cat.Store(&catalogVersion{seq: 1, meta: 1, tables: tables})
	return nil
}

// encodeCatalog serializes a table set's permanent tables
// deterministically (sorted by key).
func encodeCatalog(tables map[string]*Table) (string, error) {
	keys := make([]string, 0, len(tables))
	for k := range tables {
		if !temp(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	doc := catalogDoc{Tables: make([]catalogEntry, 0, len(keys))}
	for _, k := range keys {
		t := tables[k]
		idx := make([]string, 0, len(t.Indexes))
		for col := range t.Indexes {
			idx = append(idx, col)
		}
		sort.Strings(idx)
		doc.Tables = append(doc.Tables, catalogEntry{
			Name:    t.Name,
			Schema:  t.Schema,
			File:    t.Heap.File(),
			Indexes: idx,
		})
	}
	buf, err := json.Marshal(&doc)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// saveCatalog stages the serialized next catalog into the store's
// durable metadata (it becomes durable at the next Commit). Caller
// holds wmu, or is the bootstrap of a durable DB.
func (db *DB) saveCatalog(tables map[string]*Table) error {
	doc, err := encodeCatalog(tables)
	if err != nil {
		return fmt.Errorf("engine: encode catalog: %w", err)
	}
	return db.fd.PutMeta("catalog", doc)
}

// logged reports whether writes to the named table are made durable:
// a durable DB's permanent tables. A TempPrefix table's file is
// unlogged; its writes publish with nothing staged or awaited.
func (db *DB) logged(name string) bool { return db.fd != nil && !temp(name) }

// stageDurableLocked is the first half of the engine's durability
// barrier for a write to the named table, run under wmu: the catalog
// change (tables, if non-nil) and every dirty page's WAL image enter
// the group-commit buffer. No-op unless the table is logged.
func (db *DB) stageDurableLocked(name string, tables map[string]*Table) error {
	if !db.logged(name) {
		return nil
	}
	if tables != nil {
		if err := db.saveCatalog(tables); err != nil {
			return err
		}
	}
	// The barrier lives in awaitDurable (FileDisk.Commit), which every
	// writer calls after publishing with wmu released — splitting the
	// two halves is what lets N sessions share one fsync.
	return db.pool.FlushAll()
}

// awaitDurable is the second half, run after the publish with wmu
// released: wait for the staged records to reach the fsynced log. N
// sessions awaiting together share fsyncs (storage group commit).
// The version is visible to new snapshots from the publish; a crash
// between publish and fsync may roll the commit back, which the
// session observes as this call's error. No-op unless the named table
// is logged.
func (db *DB) awaitDurable(name string) error {
	if !db.logged(name) {
		return nil
	}
	start := time.Now()
	err := db.fd.Commit()
	db.commitWaitNS.Add(time.Since(start).Nanoseconds())
	db.commits.Add(1)
	return err
}
