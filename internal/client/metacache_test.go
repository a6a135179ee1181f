package client

import (
	"errors"
	"fmt"
	"testing"

	"tango/internal/engine"
	"tango/internal/server"
	"tango/internal/wire"
)

// TestMetadataCache: schemas and statistics (per histogram bucket
// count) are fetched once per metadata epoch; another session's DDL
// reaches the cache with the connection's next reply, a stale refusal
// empties it, and temp tables are never cached.
func TestMetadataCache(t *testing.T) {
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	a, b := Connect(srv), Connect(srv)
	defer a.Close()
	defer b.Close()
	for _, sql := range []string{"CREATE TABLE T (K INTEGER)", "INSERT INTO T VALUES (1), (2)"} {
		if _, err := a.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	fetched := func(what string, f func() error, msg byte, want int64) {
		t.Helper()
		before := srv.Requests(msg)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := srv.Requests(msg) - before; got != want {
			t.Errorf("%s: %d %s requests reached the server, want %d", what, got, wire.MsgName(msg), want)
		}
	}
	schema := func() error { _, err := a.TableSchema("t"); return err }
	stats := func(buckets int) func() error {
		return func() error { _, err := a.TableStats("T", buckets); return err }
	}
	exec := func(c *Conn, sql string) func() error {
		return func() error { _, err := c.Exec(sql); return err }
	}

	fetched("first schema read", schema, wire.MsgSchema, 1)
	fetched("second schema read", schema, wire.MsgSchema, 0)
	fetched("statistics, 4 buckets", stats(4), wire.MsgStats, 1)
	fetched("statistics, 8 buckets", stats(8), wire.MsgStats, 1)
	fetched("statistics, 4 buckets again", stats(4), wire.MsgStats, 0)

	// b's DDL: a does not know until its next reply.
	if err := exec(b, "CREATE INDEX t_k ON T (K)")(); err != nil {
		t.Fatal(err)
	}
	fetched("schema before a's next reply", schema, wire.MsgSchema, 0)
	if err := exec(a, "INSERT INTO T VALUES (3)")(); err != nil {
		t.Fatal(err)
	}
	fetched("schema after a's next reply", schema, wire.MsgSchema, 1)

	// a's own DDL empties its cache at once.
	if err := exec(a, "ANALYZE T")(); err != nil {
		t.Fatal(err)
	}
	fetched("statistics after a's ANALYZE", stats(4), wire.MsgStats, 1)

	// A refusal empties the cache.
	if _, err := a.QueryAt("SELECT K FROM T", 1); !errors.Is(err, server.ErrStaleMetadata) {
		t.Fatalf("QueryAt under epoch 1: %v, want ErrStaleMetadata", err)
	}
	fetched("schema after a stale refusal", schema, wire.MsgSchema, 1)

	temp := a.TempName()
	if err := exec(a, "CREATE TABLE "+temp+" (K INTEGER)")(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		fetched("temp table schema", func() error { _, err := a.TableSchema(temp); return err }, wire.MsgSchema, 1)
	}
}

// TestDegradableRefusesStale: a stale-metadata refusal is never an
// infrastructure failure the executor may re-site, on either transport.
func TestDegradableRefusesStale(t *testing.T) {
	for _, err := range []error{
		fmt.Errorf("%w: plan read under metadata epoch 3, catalog at 4", server.ErrStaleMetadata),
		fmt.Errorf("tango: transfer^M: %w", remoteToError(wire.RemoteError{Code: wire.CodeStaleMetadata, Msg: "epoch 3"})),
		&OpError{Op: "query", Attempts: 1, Err: server.ErrStaleMetadata},
	} {
		if !errors.Is(err, server.ErrStaleMetadata) || Degradable(err) {
			t.Errorf("%v: stale %v, degradable %v; want stale and not degradable",
				err, errors.Is(err, server.ErrStaleMetadata), Degradable(err))
		}
	}
}
