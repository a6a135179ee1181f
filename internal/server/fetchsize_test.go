package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"tango/internal/engine"
	"tango/internal/types"
	"tango/internal/wire"
)

// sizingRows is the table the fetch-sizing tests stream: large enough
// that a cursor sized by bytes reaches its block-sized batches.
const sizingRows = 14_000

// sizingServer serves table F: sizingRows rows of 4 columns.
func sizingServer(t *testing.T) *Server {
	t.Helper()
	s := New(engine.Open(engine.Config{}), wire.Latency{})
	if err := exec(s, "CREATE TABLE F (A INTEGER, B INTEGER, C VARCHAR(12), D INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := exec(s, "CREATE TABLE L (A INTEGER, B INTEGER, C VARCHAR(12), D INTEGER)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Tuple, sizingRows)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i * 7 % 1000)),
			types.Str(fmt.Sprint(i % 10)), types.Int(int64(i % 3))}
	}
	if _, err := ask(s, wire.Request{Op: wire.MsgLoad, Name: "F", Body: wire.EncodeBatch(nil, rows)}); err != nil {
		t.Fatal(err)
	}
	return s
}

// fetchAll drains a cursor of the session through Handle, returning a
// copy of every data fetch's body.
func fetchAll(t *testing.T, se *Session, id uint64) [][]byte {
	t.Helper()
	var bodies [][]byte
	for seq := int64(1); ; seq++ {
		rep, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: seq})
		if err != nil {
			t.Fatalf("fetch %d: %v", seq, err)
		}
		if rep.EOS {
			return bodies
		}
		bodies = append(bodies, bytes.Clone(rep.Body))
	}
}

// open opens a query on the session with the given rows per fetch.
func open(t *testing.T, se *Session, sql string, n int64) uint64 {
	t.Helper()
	rep, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgQuery, Name: sql, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Cursor
}

// TestFetchSizing pins the fetch-size rule: with the row count unset a
// cursor's first batch is wire.DefaultPrefetch rows, and each later
// batch doubles until a fetch is one block of about fetchBytes; a
// replayed batch is the batch first sent; a tiny result costs one small
// fetch; an explicit row count is exact.
func TestFetchSizing(t *testing.T) {
	s := sizingServer(t)
	const all = "SELECT A, B, C, D FROM F"
	bodies := fetchAll(t, s.local, open(t, s.local, all, 0))

	total, prev := 0, 0
	for i, body := range bodies {
		rows, cols, n, err := types.BlockLen(body)
		if err != nil || n != len(body) || cols != 4 {
			t.Fatalf("fetch %d: not one 4-column block (%d of %d bytes, %d cols, %v)", i+1, n, len(body), cols, err)
		}
		if len(body) > fetchBytes {
			t.Errorf("fetch %d: %d bytes, want <= %d", i+1, len(body), fetchBytes)
		}
		switch {
		case i == 0 && rows != wire.DefaultPrefetch:
			t.Errorf("first fetch: %d rows, want %d", rows, wire.DefaultPrefetch)
		case i < len(bodies)-1 && rows < prev:
			t.Errorf("fetch %d: %d rows, fewer than the %d before it", i+1, rows, prev)
		}
		total, prev = total+rows, rows
	}
	if total != sizingRows {
		t.Fatalf("%d rows fetched, want %d", total, sizingRows)
	}
	if len(bodies) > 8 {
		t.Errorf("%d data fetches, want <= 8", len(bodies))
	}
	t.Logf("%d data fetches, the last of %d rows", len(bodies), prev)

	// A partial delivery of a grown batch is replayed byte for byte.
	const k = 3
	sched, err := wire.ParseSchedule(fmt.Sprintf("seed=1;fetch@%d=partial", k))
	if err != nil {
		t.Fatal(err)
	}
	id := open(t, s.local, all, 0)
	s.SetFaults(sched.Injector())
	for seq := int64(1); seq <= k; seq++ {
		rep, err := ask(s, wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if seq == k && bytes.Equal(rep.Body, bodies[k-1]) {
			t.Fatal("the partial fault delivered the whole batch")
		}
	}
	s.SetFaults(nil)
	rep, err := ask(s, wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: k})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Body, bodies[k-1]) {
		t.Fatalf("replay of fetch %d differs from the batch first sent (%d vs %d bytes)", k, len(rep.Body), len(bodies[k-1]))
	}

	// One row is one small fetch.
	id = open(t, s.local, "SELECT A FROM F WHERE A = 5", 0)
	if got := fetchAll(t, s.local, id); len(got) != 1 {
		t.Errorf("1-row result took %d data fetches, want 1", len(got))
	}
	if c := cap(s.local.cursor(id).rows); c > wire.DefaultPrefetch {
		t.Errorf("1-row cursor holds a %d-row slice, want <= %d", c, wire.DefaultPrefetch)
	}

	// An explicit row count pins every fetch.
	for i, body := range fetchAll(t, s.local, open(t, s.local, all, 100)) {
		if rows, _, _, _ := types.BlockLen(body); rows != 100 {
			t.Fatalf("pinned fetch %d: %d rows, want 100", i+1, rows)
		}
	}
}

// TestSessionBudgetShedsResidentBatch: a session whose replayable batch
// outgrows its budget is shed on its next statement with a typed
// "budget" overload, and closing the cursor gives the bytes back.
func TestSessionBudgetShedsResidentBatch(t *testing.T) {
	s := sizingServer(t)
	s.SetAdmission(AdmissionConfig{SessionBudget: 1000})
	se := s.NewSession()
	defer se.Close()
	id := open(t, se, "SELECT A, B, C, D FROM F", 0)
	rep, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Body) <= 1000 {
		t.Fatalf("first batch is %d bytes; the test needs one past the budget", len(rep.Body))
	}
	_, err = se.Handle(context.Background(), wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: 2})
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != "budget" {
		t.Fatalf("fetch past the budget: %v, want ErrOverloaded{Reason: budget}", err)
	}
	if s.Shed() != 1 {
		t.Fatalf("Shed = %d, want 1", s.Shed())
	}
	if _, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgCloseCursor, Cursor: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgQuery, Name: "SELECT A FROM F WHERE A = 1"}); err != nil {
		t.Fatalf("statement after the cursor closed: %v", err)
	}
}

// TestSessionBudgetGrowthRunsClean: a session that fits its budget
// with fixed wire.DefaultPrefetch-row fetches — two cursors streamed in
// turn, with a bulk load between their fetches — still fits it when
// fetches are sized by bytes, and its batches still grow.
func TestSessionBudgetGrowthRunsClean(t *testing.T) {
	s := sizingServer(t)
	load := wire.EncodeBatch(nil, []types.Tuple{{types.Int(1), types.Int(2), types.Str("1"), types.Int(3)}})
	// Two resident batches and a load: what fixed-size fetches need,
	// with a batch's worth to spare.
	first := len(fetchAll(t, s.local, open(t, s.local, "SELECT A, B, C, D FROM F", wire.DefaultPrefetch))[0])
	s.SetAdmission(AdmissionConfig{SessionBudget: int64(3*first + len(load))})
	for _, n := range []int64{wire.DefaultPrefetch, 0} {
		se := s.NewSession()
		ids := []uint64{open(t, se, "SELECT A, B, C, D FROM F", n), open(t, se, "SELECT D, C, B, A FROM F", n)}
		seqs, eos, most := []int64{0, 0}, []bool{false, false}, 0
		for !eos[0] || !eos[1] {
			for i, id := range ids {
				if eos[i] {
					continue
				}
				seqs[i]++
				rep, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgFetch, Cursor: id, Seq: seqs[i]})
				if err != nil {
					t.Fatalf("prefetch %d: cursor %d fetch %d: %v", n, i, seqs[i], err)
				}
				if eos[i] = rep.EOS; !eos[i] {
					rows, _, _, _ := types.BlockLen(rep.Body)
					most = max(most, rows)
				}
				if _, err := se.Handle(context.Background(), wire.Request{Op: wire.MsgLoad, Name: "L", Body: load}); err != nil {
					t.Fatalf("prefetch %d: load after cursor %d fetch %d: %v", n, i, seqs[i], err)
				}
			}
		}
		if n == 0 && most <= wire.DefaultPrefetch {
			t.Errorf("batches sized by bytes never grew under the budget (largest %d rows)", most)
		}
		if _, err := se.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Shed() != 0 {
		t.Fatalf("Shed = %d, want 0", s.Shed())
	}
}
