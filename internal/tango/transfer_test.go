package tango

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/client"
	"tango/internal/engine"
	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/wire"
	"tango/internal/xxl"
)

// TestConformance runs the transfers through the iterator contract
// table: a T^M whose SQL reads the temp table its T^D loads.
func TestConformance(t *testing.T) {
	a := itertest.Ints("K T1 T2", []int64{1, 0, 5}, []int64{1, 3, 8}, []int64{2, 1, 4}, []int64{3, 0, 2}, []int64{3, 2, 6})
	conn := client.Connect(server.New(engine.Open(engine.Config{}), wire.Latency{}))
	transfer := func(in []rel.Iterator) rel.Iterator {
		name := conn.TempName()
		return NewTransferM(conn, "SELECT K, T1, T2 FROM "+name, a.Schema, NewTransferD(conn, in[0], name))
	}
	one := []*rel.Relation{a}
	itertest.Run(t, []itertest.Case{
		{Name: "TransferM", Inputs: one, Want: a, Build: transfer},
	})
}

// randomRel builds n rows of (K, Seq, V) with duplicate-heavy keys so
// stability is observable via the Seq column.
func randomRel(n, keySpace int, seed int64) *rel.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "Seq", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindString},
	))
	for i := 0; i < n; i++ {
		r.Append(types.Tuple{
			types.Int(rng.Int63n(int64(keySpace))),
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("v%d", i)),
		})
	}
	return r
}

// serveRel loads r into a DBMS table R and returns the connection and
// a constructor of T^M scans of it.
func serveRel(t *testing.T, r *rel.Relation) (*client.Conn, func() *TransferM) {
	t.Helper()
	conn := client.Connect(server.New(engine.Open(engine.Config{}), wire.Latency{}))
	if err := conn.CreateTable("R", r.Schema); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Load("R", r.Tuples); err != nil {
		t.Fatal(err)
	}
	return conn, func() *TransferM {
		return NewTransferM(conn, "SELECT "+strings.Join(r.Schema.Names(), ", ")+" FROM R", r.Schema)
	}
}

// TestFailedOpenFinishesTransferSpan: a T^M whose cursor comes back
// with another arity than the plan's fails Open, and its "transfer"
// span is finished all the same, so a traced query leaves no span open.
func TestFailedOpenFinishesTransferSpan(t *testing.T) {
	conn, _ := serveRel(t, randomRel(10, 3, 1))
	root := telemetry.NewSpan("query")
	pop := conn.PushTrace(root)
	defer pop()
	tm := NewTransferM(conn, "SELECT K, Seq, V FROM R", types.NewSchema(types.Column{Name: "K", Kind: types.KindInt}))
	if err := tm.Open(); err == nil || !strings.Contains(err.Error(), "got 3 columns, expected 1") {
		t.Fatalf("Open = %v, want an arity error", err)
	}
	if err := tm.Close(); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	if open := telemetry.UnfinishedSpans(root); len(open) > 0 {
		t.Errorf("spans left open after a failed Open: %v", open)
	}
}

// TestWindowedTransferReopen: a T^M, whose cursor reads ahead through
// its own fetch loop, can be drained, closed and opened again (plans
// are occasionally re-run), each time producing the same stream.
func TestWindowedTransferReopen(t *testing.T) {
	defer itertest.Goroutines(t)()
	in := randomRel(2000, 10, 57)
	conn, scan := serveRel(t, in)
	tm := scan()
	for round := 0; round < 2; round++ {
		got, err := rel.Drain(tm)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !rel.EqualAsLists(got, in) {
			t.Fatalf("round %d: transfer differs from the loaded relation", round)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStackedPipelineStress stacks one pipeline — Join^M{ Sort^M
// (spilling){ T^M (read-ahead fetch) }} — and hammers it under the race
// detector: full drains, partial consumptions with early Close, and
// random dst sizes. Whatever the consumption pattern, no read-ahead
// goroutine may leak and full drains must equal the unspilled order.
func TestStackedPipelineStress(t *testing.T) {
	defer itertest.Goroutines(t)()
	in := randomRel(6000, 40, 99)
	conn, scan := serveRel(t, in)
	right := itertest.Ints("K W", []int64{0, 1}, []int64{5, 2}, []int64{5, 3}, []int64{17, 4}, []int64{39, 5})
	want, err := rel.Drain(xxl.NewMergeJoin(xxl.NewSort(scan(), []int{0}), right.Iter(), []int{0}, []int{0}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		srt := xxl.NewSort(scan(), []int{0})
		srt.MemTuples = 512 // force spilling runs
		outer := xxl.NewMergeJoin(srt, right.Iter(), []int{0}, []int{0})
		if err := outer.Open(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		buf := make([]types.Tuple, 1+rng.Intn(300))
		got := rel.New(want.Schema)
		var mem types.Arena
		// A full drain, or a few batches and then Close.
		full, limit := rng.Intn(3) == 0, rng.Intn(10)
		for batches := 0; full || batches < limit; batches++ {
			n, err := outer.NextBatch(buf)
			if err != nil {
				t.Fatalf("round %d: batch %d: %v", round, batches, err)
			}
			if n == 0 {
				if !rel.EqualAsLists(got, want) {
					t.Fatalf("round %d: spilling pipeline diverged from the in-memory one", round)
				}
				break
			}
			for _, r := range buf[:n] { // valid only until the next batch
				got.Append(mem.Copy(r))
			}
		}
		if err := outer.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}
