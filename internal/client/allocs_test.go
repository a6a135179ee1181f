//go:build !race

package client

import (
	"context"
	"testing"

	"tango/internal/server"
	"tango/internal/wire"
)

// TestFetchOverSocketAllocs guards the fetch path's copy count: one
// 256-row batch served, framed, sent over a loopback socket, read and
// decoded. The batch is encoded once into the session worker's reused
// scratch, copied once into the connection's reused write buffer, read
// once into the pooled scratch the fetch supplied, and decoded from
// there — so per round trip only the decoded rows are batch-sized
// allocations.
func TestFetchOverSocketAllocs(t *testing.T) {
	const batches = 40
	ts := tcpServer(t, (batches+2)*wire.DefaultPrefetch, server.TCPConfig{})
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Prefetch = wire.DefaultPrefetch // the subject is a fetch's allocations, not its size
	rows, err := c.Query("SELECT PosID, EmpName, T1, T2 FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seq := int64(0)
	var encoded int
	fetch := func() {
		seq++
		b := rows.fetchBatch(context.Background(), seq)
		if b.err != nil || len(b.rows) != wire.DefaultPrefetch {
			t.Fatalf("fetch %d: %d rows, err %v", seq, len(b.rows), b.err)
		}
		encoded = b.bytes
	}
	fetch() // warm the reused buffers

	allocs := testing.AllocsPerRun(batches, fetch)
	t.Logf("%.0f allocs per fetch of a %d-byte batch", allocs, encoded)

	// Measured 15, process-wide: the server's heap-page decode,
	// projection and request frame; the client's attempt, pending call,
	// frame header and decoded rows. A batch copied into fresh memory
	// anywhere on the way adds one.
	if allocs > 15 {
		t.Errorf("%.0f allocs per fetch round trip, want <= 15", allocs)
	}
}
