package client

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// backoffFloor is the delay before retry n before jitter: 500 µs
// doubled n−1 times, capped at 10 ms.
func backoffFloor(n int) time.Duration {
	return min(500*time.Microsecond<<min(n-1, 5), 10*time.Millisecond)
}

// TestBackoffMonotone: the smallest of many jittered delays before
// retry n sits at its floor, and the floors never decrease with n.
func TestBackoffMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		if n > 1 && backoffFloor(n) < backoffFloor(n-1) {
			t.Fatalf("floor before retry %d = %v, below retry %d's %v", n, backoffFloor(n), n-1, backoffFloor(n-1))
		}
		least := time.Duration(math.MaxInt64)
		for i := 0; i < 1000; i++ {
			least = min(least, backoff(n, rng))
		}
		if f := backoffFloor(n); least < f || least > f+f/100 {
			t.Fatalf("least backoff before retry %d = %v, want within 1%% above %v", n, least, f)
		}
	}
}

// TestBackoffJitterBounded: jitter only ever adds, and adds at most
// 20 % of the floor.
func TestBackoffJitterBounded(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 1; n <= 64; n++ {
			f := backoffFloor(n)
			if d := backoff(n, rng); d < f || d > f+f/5 {
				t.Fatalf("seed %d: backoff before retry %d = %v, want in [%v, %v]", seed, n, d, f, f+f/5)
			}
		}
	}
}

// TestBackoffScheduleWithinDeadline: the retry loop cuts its
// cumulative sleep at Deadline, even when the server suggests a
// longer backoff.
func TestBackoffScheduleWithinDeadline(t *testing.T) {
	const deadline = 20 * time.Millisecond
	c := &Conn{Retry: RetryPolicy{MaxAttempts: 10, Deadline: deadline}, jitter: newJitterSrc(1)}
	start := time.Now()
	err := c.do("query", func(_ *telemetry.Span) error { return &server.ErrOverloaded{Backoff: time.Hour} })
	elapsed := time.Since(start)
	var oe *OpError
	if !errors.As(err, &oe) || oe.Attempts != 2 {
		t.Fatalf("got %v, want an OpError after 2 attempts: one sleep, cut to the deadline", err)
	}
	if elapsed < deadline || elapsed > 10*time.Second {
		t.Fatalf("gave up after %v, want just past the %v deadline", elapsed, deadline)
	}
}

// TestBackoffDeterministicPerSeed: equal seeds produce equal jittered
// schedules (the chaos suite depends on replayable runs).
func TestBackoffDeterministicPerSeed(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng, replay := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for n := 1; n <= 64; n++ {
			if d, r := backoff(n, rng), backoff(n, replay); d != r {
				t.Fatalf("seed %d: backoff before retry %d replayed as %v, first %v", seed, n, r, d)
			}
		}
	}
}

// do runs one logical idempotent operation that produces no value.
func (c *Conn) do(op string, f func(sp *telemetry.Span) error) error {
	_, err := doVal(c, op, func(sp *telemetry.Span) (struct{}, error) { return struct{}{}, f(sp) }, nil)
	return err
}

// TestDoRetriesTransientThenSucceeds: a fault that clears after k
// failures is absorbed iff k < MaxAttempts, and the telemetry
// counters record every retry.
func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	for _, k := range []int{0, 1, 2, 3} {
		reg := telemetry.NewRegistry()
		c := &Conn{
			Metrics: reg,
			Retry: RetryPolicy{
				MaxAttempts: 3,
			},
			jitter: newJitterSrc(1),
		}
		calls := 0
		err := c.do("load", func(_ *telemetry.Span) error {
			calls++
			if calls <= k {
				return &wire.FaultError{Op: wire.OpLoad, Kind: wire.KindDrop, Index: int64(calls)}
			}
			return nil
		})
		wantOK := k < c.Retry.MaxAttempts
		if (err == nil) != wantOK {
			t.Fatalf("k=%d: err=%v, want success=%v", k, err, wantOK)
		}
		if !wantOK {
			var oe *OpError
			if !errors.As(err, &oe) || oe.Attempts != c.Retry.MaxAttempts {
				t.Fatalf("k=%d: want OpError with %d attempts, got %v", k, c.Retry.MaxAttempts, err)
			}
			if !Degradable(err) {
				t.Fatalf("k=%d: exhausted transient failure must be degradable", k)
			}
		}
		wantRetries := int64(k)
		if k >= c.Retry.MaxAttempts {
			wantRetries = int64(c.Retry.MaxAttempts - 1)
		}
		if got := reg.Counter("tango_client_retries_total", telemetry.Labels{"op": "load"}).Value(); got != wantRetries {
			t.Fatalf("k=%d: retries counter = %d, want %d", k, got, wantRetries)
		}
	}
}

// TestDoNonRetryableSurfacesImmediately: semantic errors are not
// retried and are returned unwrapped.
func TestDoNonRetryableSurfacesImmediately(t *testing.T) {
	c := &Conn{
		Retry:  RetryPolicy{MaxAttempts: 5},
		jitter: newJitterSrc(1),
	}
	sem := errors.New("no such table FOO")
	calls := 0
	err := c.do("exec", func(_ *telemetry.Span) error { calls++; return sem })
	if !errors.Is(err, sem) || calls != 1 {
		t.Fatalf("got err=%v after %d call(s), want the semantic error after exactly 1", err, calls)
	}
	if Degradable(err) {
		t.Fatal("semantic error must not be degradable")
	}
}

// TestDoContextCancellation: canceling the connection context aborts
// the retry loop with a typed OpError wrapping context.Canceled.
func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Conn{
		Ctx: ctx,
		Retry: RetryPolicy{
			MaxAttempts: 100,
		},
		jitter: newJitterSrc(1),
	}
	calls := 0
	err := c.do("fetch", func(_ *telemetry.Span) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return &wire.FaultError{Op: wire.OpFetch, Kind: wire.KindDrop, Index: int64(calls)}
	})
	var oe *OpError
	if !errors.As(err, &oe) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want OpError wrapping context.Canceled, got %v", err)
	}
	if calls > 3 {
		t.Fatalf("retry loop survived cancellation for %d calls", calls)
	}
}

// TestOpTimeoutAbandonsAndDiscards: an attempt that outlives its
// per-call deadline is abandoned (the loop classifies it as a
// timeout) and the value it eventually produces is handed to the
// discard hook instead of leaking.
func TestOpTimeoutAbandonsAndDiscards(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := &Conn{
		Metrics: reg,
		Retry: RetryPolicy{
			MaxAttempts: 2,
			OpTimeout:   5 * time.Millisecond,
		},
		jitter: newJitterSrc(1),
	}
	release := make(chan struct{})
	discarded := make(chan int, 2)
	// Attempts run concurrently with their abandoned predecessors (by
	// design), so the attempt counter must be atomic.
	var calls atomic.Int64
	v, err := doVal(c, "query", func(_ *telemetry.Span) (int, error) {
		if calls.Add(1) == 1 {
			<-release // first attempt stalls past its deadline
			return 41, nil
		}
		return 42, nil
	}, func(abandoned int) { discarded <- abandoned })
	if err != nil || v != 42 {
		t.Fatalf("got (%d, %v), want (42, nil)", v, err)
	}
	close(release)
	select {
	case got := <-discarded:
		if got != 41 {
			t.Fatalf("discarded %d, want the abandoned attempt's 41", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned attempt's value never reached the discard hook")
	}
	if got := reg.Counter("tango_client_op_timeouts_total", telemetry.Labels{"op": "query"}).Value(); got != 1 {
		t.Fatalf("op timeout counter = %d, want 1", got)
	}
	if !IsTimeout(opError("query", 1, errOpTimeout)) {
		t.Fatal("IsTimeout must recognize a timeout OpError")
	}
}
