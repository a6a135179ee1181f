// The connection's metadata cache: schemas and statistics kept for one
// DBMS metadata epoch, emptied by the first reply that shows a newer
// one and by a stale-plan refusal (QueryAt). Reads name the epoch they
// were made under, so a plan can send the oldest with its queries.
// Temp tables are never cached. DESIGN.md §4i states the contract.
package client

import (
	"strings"
	"sync"

	"tango/internal/meta"
	"tango/internal/server"
	"tango/internal/types"
	"tango/internal/wire"
)

// metaCache holds the schemas and statistics read under one epoch.
type metaCache struct {
	mu      sync.Mutex //tango:lock-order metacache latch
	epoch   uint64     // the newest epoch any reply has shown (0: none yet)
	schemas map[string]types.Schema
	stats   map[statsKey]*meta.TableStats
}

// statsKey is a statistics read: an upper-case table name and the
// histogram buckets asked for.
type statsKey struct {
	table   string
	buckets int
}

// observe notes the epoch a reply carried, emptying the cache when it
// is newer than the one the entries were read under.
func (m *metaCache) observe(epoch uint64) {
	m.mu.Lock()
	if epoch > m.epoch {
		m.epoch = epoch
		clear(m.schemas)
		clear(m.stats)
	}
	m.mu.Unlock()
}

// reset empties the cache and forgets its epoch: the server refused a
// plan built from it, which also covers a server whose epoch restarted
// below the one the cache holds.
func (m *metaCache) reset() {
	m.mu.Lock()
	m.epoch = 0
	clear(m.schemas)
	clear(m.stats)
	m.mu.Unlock()
}

// lookup returns the value cached in *entries under key and the epoch
// it was read under.
func lookup[K comparable, V any](m *metaCache, entries *map[K]V, key K) (V, uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := (*entries)[key]
	return v, m.epoch, ok
}

// store caches a value read under epoch in *entries, unless a newer
// reply has already moved the cache past it.
func store[K comparable, V any](m *metaCache, entries *map[K]V, key K, v V, epoch uint64) {
	m.mu.Lock()
	if epoch == m.epoch {
		if *entries == nil {
			*entries = map[K]V{}
		}
		(*entries)[key] = v
	}
	m.mu.Unlock()
}

// cacheable reports whether a table's metadata may be cached: transfer
// temp tables come and go within one query.
func cacheable(key string) bool { return !strings.HasPrefix(key, server.TempPrefix) }

// TableStats returns catalog statistics for the Statistics Collector,
// from the cache while the metadata epoch holds.
func (c *Conn) TableStats(table string, histogramBuckets int) (*meta.TableStats, error) {
	st, _, err := c.TableStatsAt(table, histogramBuckets)
	return st, err
}

// TableStatsAt is TableStats plus the metadata epoch the statistics
// were read under. A miss fetches them (read-only, hence retried).
func (c *Conn) TableStatsAt(table string, histogramBuckets int) (*meta.TableStats, uint64, error) {
	k := statsKey{strings.ToUpper(table), histogramBuckets}
	if st, epoch, ok := lookup(&c.meta, &c.meta.stats, k); ok {
		return st, epoch, nil
	}
	rep, err := c.retried("stats", wire.Request{Op: wire.MsgStats, Name: table, N: int64(histogramBuckets)}, nil)
	if err != nil {
		return nil, 0, err
	}
	if cacheable(k.table) {
		store(&c.meta, &c.meta.stats, k, rep.Stats, rep.Epoch)
	}
	return rep.Stats, rep.Epoch, nil
}

// TableSchema returns a table's schema, from the cache while the
// metadata epoch holds.
func (c *Conn) TableSchema(table string) (types.Schema, error) {
	s, _, err := c.TableSchemaAt(table)
	return s, err
}

// TableSchemaAt is TableSchema plus the metadata epoch the schema was
// read under.
func (c *Conn) TableSchemaAt(table string) (types.Schema, uint64, error) {
	k := strings.ToUpper(table)
	if s, epoch, ok := lookup(&c.meta, &c.meta.schemas, k); ok {
		return s, epoch, nil
	}
	rep, err := c.call(c.baseCtx(), wire.Request{Op: wire.MsgSchema, Name: table})
	if err != nil {
		return types.Schema{}, 0, err
	}
	if cacheable(k) {
		store(&c.meta, &c.meta.schemas, k, rep.Schema, rep.Epoch)
	}
	return rep.Schema, rep.Epoch, nil
}
