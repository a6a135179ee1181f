package client

import (
	"testing"

	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/server"
	"tango/internal/wire"
)

// TestRowsConformance runs the wire row set through the iterator
// contract table.
func TestRowsConformance(t *testing.T) {
	want := itertest.Ints("K V", []int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40}, []int64{5, 50})
	srv := server.New(engine.Open(engine.Config{}), wire.Latency{})
	c := Connect(srv)
	c.Prefetch = 2 // several fetches per result
	if err := c.CreateTable("N", want.Schema); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load("N", want.Tuples); err != nil {
		t.Fatal(err)
	}
	itertest.Run(t, []itertest.Case{
		{Name: "Rows", Want: want, Build: func([]rel.Iterator) rel.Iterator {
			rows, err := c.Query("SELECT K, V FROM N")
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}},
	})
	if n := srv.OpenCursors(); n != 0 {
		t.Errorf("%d server cursors left open", n)
	}
}
