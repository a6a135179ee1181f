package client

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tango/internal/telemetry"
	"tango/internal/wire"
)

// genPolicy derives an arbitrary-but-plausible policy from quick's
// raw inputs (the fields are reduced into sane ranges; normalization
// of degenerate values is itself part of the contract under test).
func genPolicy(attempts uint8, base, max uint32, mult, jitter float64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: int(attempts%16) + 1,
		BaseDelay:   time.Duration(base%1_000_000) * time.Microsecond,
		MaxDelay:    time.Duration(max%10_000_000) * time.Microsecond,
		Multiplier:  mult,
		JitterFrac:  jitter,
		Deadline:    time.Duration(max%5_000_000) * time.Microsecond,
	}
}

// TestBackoffMonotone: the pre-jitter backoff never decreases with
// the attempt number and never exceeds the (normalized) cap.
func TestBackoffMonotone(t *testing.T) {
	prop := func(attempts uint8, base, max uint32, mult, jitter float64) bool {
		p := genPolicy(attempts, base, max, mult, jitter)
		cap := p.BaseBackoff(1 << 20) // far past any growth: the cap
		prev := time.Duration(0)
		for a := 1; a <= 64; a++ {
			d := p.BaseBackoff(a)
			if d < prev || d <= 0 || d > cap {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffJitterBounded: jitter only ever adds, and adds at most
// JitterFrac (clamped to [0,1]) of the base backoff.
func TestBackoffJitterBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func(attempts uint8, base, max uint32, mult, jitter float64, seed int64) bool {
		p := genPolicy(attempts, base, max, mult, jitter)
		frac := p.JitterFrac
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		for a := 1; a <= 16; a++ {
			b := p.BaseBackoff(a)
			j := p.Backoff(a, rng)
			if j < b {
				return false // jitter must not shrink the delay
			}
			if float64(j-b) > frac*float64(b)+1 { // +1ns rounding slack
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffScheduleWithinDeadline: the cumulative jittered schedule
// never sleeps past the policy deadline, and never schedules more
// than MaxAttempts-1 backoffs.
func TestBackoffScheduleWithinDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(attempts uint8, base, max uint32, mult, jitter float64) bool {
		p := genPolicy(attempts, base, max, mult, jitter)
		sched := p.BackoffSchedule(rng)
		if len(sched) > p.MaxAttempts-1 {
			return false
		}
		var total time.Duration
		for _, d := range sched {
			if d < 0 {
				return false
			}
			total += d
		}
		if p.Deadline > 0 && total > p.Deadline {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffDeterministicPerSeed: equal seeds produce equal jittered
// schedules (the chaos suite depends on replayable runs).
func TestBackoffDeterministicPerSeed(t *testing.T) {
	prop := func(attempts uint8, base, max uint32, mult, jitter float64, seed int64) bool {
		p := genPolicy(attempts, base, max, mult, jitter)
		a := p.BackoffSchedule(rand.New(rand.NewSource(seed)))
		b := p.BackoffSchedule(rand.New(rand.NewSource(seed)))
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
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
				BaseDelay:   time.Microsecond,
				MaxDelay:    10 * time.Microsecond,
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
		Retry:  RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond},
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
			BaseDelay:   time.Millisecond,
			MaxDelay:    time.Millisecond,
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
			BaseDelay:   time.Microsecond,
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
