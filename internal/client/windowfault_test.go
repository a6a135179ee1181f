package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
	"tango/internal/wire"
)

// windowRetry is the read-ahead fault tests' retry policy.
func windowRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		OpTimeout:   250 * time.Millisecond,
		Deadline:    2 * time.Second,
	}
}

// TestQueryWindowedDiesMidWindow: when the wire dies partway through
// a stream, the fetch loop's retries give up with a typed error that
// stays sticky, and Close still returns promptly, joins the loop and
// frees the server cursor, so the goroutine count returns to baseline.
func TestQueryWindowedDiesMidWindow(t *testing.T) {
	defer itertest.Goroutines(t)()
	c := windowConn(t, 4000, wire.Latency{RoundTrip: 200 * time.Microsecond})
	c.Retry = windowRetry()
	// 16 fixed-size fetches, so the stream is still mid-way when the
	// wire dies; sized by bytes it would take 5.
	c.Prefetch = wire.DefaultPrefetch

	rows, err := c.Query("SELECT PosID, EmpName, T1, T2 FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	// Drain a little so the fetch loop is running and reading ahead.
	rd := rel.NewReader(rows)
	for i := 0; i < 10; i++ {
		if _, ok, err := rd.Next(); err != nil || !ok {
			t.Fatalf("warm-up row %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Kill the wire: every further FETCH drops, on every retry.
	sched, err := wire.ParseSchedule("seed=5;fetch~drop=1")
	if err != nil {
		t.Fatal(err)
	}
	c.be.(*loopback).srv.SetFaults(sched.Injector())
	var ferr error
	for {
		_, ok, err := rd.Next()
		if err != nil {
			ferr = err
			break
		}
		if !ok {
			t.Fatal("stream ended cleanly under a dead wire")
		}
	}
	var oe *OpError
	if !errors.As(ferr, &oe) || oe.Op != "fetch" {
		t.Fatalf("want a typed fetch OpError, got %v", ferr)
	}
	// The error is sticky: the stream does not turn into a clean end.
	if n, err := rows.NextBatch(make([]types.Tuple, 8)); n != 0 || err != ferr {
		t.Fatalf("NextBatch after the failure: n=%d err=%v, want the same error", n, err)
	}
	done := make(chan error, 1)
	go func() { done <- rows.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a dead wire")
	}
	c.be.(*loopback).srv.SetFaults(nil)
	if n := c.be.(*loopback).srv.OpenCursors(); n != 0 {
		t.Fatalf("%d cursor(s) leaked", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWindowedCloseAbandonsRetries: closing the iterator while
// the fetch loop is inside a retry/backoff loop must cancel the loop
// instead of waiting out the whole retry budget.
func TestQueryWindowedCloseAbandonsRetries(t *testing.T) {
	defer itertest.Goroutines(t)()
	c := windowConn(t, 4000, wire.Latency{})
	// A pathological budget: without cancellation, Close would wait
	// for minutes of backoff at the 10 ms cap.
	c.Retry = RetryPolicy{
		MaxAttempts: 100_000,
		OpTimeout:   time.Second,
		Deadline:    5 * time.Minute,
	}
	c.Prefetch = wire.DefaultPrefetch // 16 batches
	rows, err := c.Query("SELECT PosID FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	// Take the first batch, and let the fetch loop fill its read-ahead
	// while the wire still works.
	rd := rel.NewReader(rows)
	if _, ok, err := rd.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}
	time.Sleep(20 * time.Millisecond)
	// Kill the wire, then take the second batch: the fetch loop goes on
	// to a fetch that every retry drops.
	sched, err := wire.ParseSchedule("seed=9;fetch~drop=1")
	if err != nil {
		t.Fatal(err)
	}
	c.be.(*loopback).srv.SetFaults(sched.Injector())
	for i := 0; i < wire.DefaultPrefetch; i++ {
		if _, ok, err := rd.Next(); err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i+1, ok, err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the fetch loop enter its retry loop
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- rows.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited out the retry budget instead of canceling it")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v; cancellation should be prompt", elapsed)
	}
	c.be.(*loopback).srv.SetFaults(nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryWindowedConnContextCancel: canceling the connection
// context mid-stream surfaces a typed failure and unwinds the fetch
// loop.
func TestQueryWindowedConnContextCancel(t *testing.T) {
	defer itertest.Goroutines(t)()
	c := windowConn(t, 4000, wire.Latency{RoundTrip: 100 * time.Microsecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Ctx = ctx
	c.Retry = windowRetry()

	rows, err := c.Query("SELECT PosID, T1, T2 FROM POSITION")
	if err != nil {
		t.Fatal(err)
	}
	rd := rel.NewReader(rows)
	for i := 0; i < 5; i++ {
		if _, ok, err := rd.Next(); err != nil || !ok {
			t.Fatalf("warm-up row %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	for {
		_, ok, err := rd.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled in the chain, got %v", err)
			}
			break
		}
		if !ok {
			// The fetch loop may have finished the stream before the
			// cancellation landed; that is a clean outcome too.
			break
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
