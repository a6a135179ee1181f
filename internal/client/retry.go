// Client-side wire resilience: per-call deadlines, context
// cancellation, and capped exponential backoff with bounded jitter for
// idempotent operations. The retry protocol leans on the server's
// idempotency guarantees — cursor fetches are re-positioned by
// statement sequence number, bulk loads are deduplicated by load
// sequence, and a temp table is created IF NOT EXISTS and dropped IF
// EXISTS — so a retry after an ambiguous failure (work done, reply
// lost) never double-applies.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tango/internal/server"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// RetryPolicy tunes the resilience layer. The zero value disables it
// entirely (no retries, no deadlines) so existing in-process callers
// are untouched; DefaultRetryPolicy is what cmd/tango and the bench
// harness enable. The backoff between attempts has one shape: see
// backoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per idempotent op
	// (1 = no retries). <= 0 also means no retries.
	MaxAttempts int
	// OpTimeout is the per-call deadline; 0 means none. A call that
	// exceeds it is abandoned and surfaces as a timeout OpError, which
	// is retryable. The abandoned call keeps running: in process it
	// runs concurrently with its retry, while over TCP the session's
	// worker runs the two in arrival order, so the retry waits behind
	// it.
	OpTimeout time.Duration
	// Deadline bounds the total time spent on one logical operation
	// across all attempts and backoffs; 0 means unbounded.
	Deadline time.Duration
}

// DefaultRetryPolicy is the resilience configuration cmd/tango and the
// chaos harness start from.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		OpTimeout:   250 * time.Millisecond,
		Deadline:    2 * time.Second,
	}
}

// The backoff shape: the first retry waits backoffBase, each later one
// backoffGrowth times the one before, capped at backoffCap, plus
// uniform positive jitter of up to backoffJitter of that delay, which
// de-synchronizes concurrent retriers.
const (
	backoffBase   = 500 * time.Microsecond
	backoffCap    = 10 * time.Millisecond
	backoffGrowth = 2
	backoffJitter = 0.2
)

// backoff returns the jittered delay before retry number attempt
// (1-based).
func backoff(attempt int, rng *rand.Rand) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= backoffGrowth
	}
	d = min(d, backoffCap)
	return d + time.Duration(rng.Float64()*backoffJitter*float64(d))
}

// OpError is the typed failure of one logical client operation after
// the resilience layer gave up: every attempt failed, the per-op or
// total deadline expired, or the context was canceled.
type OpError struct {
	// Op names the operation ("query", "fetch", "load", "create",
	// "drop", "exec", "stats").
	Op string
	// Attempts is how many times the op was tried.
	Attempts int
	// Timeout marks a per-call deadline expiry (the underlying call
	// may still have taken effect — the ambiguous-failure case).
	Timeout bool
	// Err is the last underlying error (nil for pure timeouts).
	Err error
}

// Error renders the failure.
func (e *OpError) Error() string {
	switch {
	case e.Timeout && e.Err == nil:
		return fmt.Sprintf("client: %s: deadline exceeded after %d attempt(s)", e.Op, e.Attempts)
	case e.Err != nil:
		return fmt.Sprintf("client: %s failed after %d attempt(s): %v", e.Op, e.Attempts, e.Err)
	default:
		return fmt.Sprintf("client: %s failed after %d attempt(s)", e.Op, e.Attempts)
	}
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }

// errOpTimeout marks a single attempt abandoned at its deadline.
var errOpTimeout = errors.New("client: op deadline exceeded")

// corruptReply marks a fetch reply that arrived but failed to decode
// — the wire mangled the payload in flight. It is transient: a retry
// replays the same sequence number and the server re-sends the batch.
type corruptReply struct{ err error }

func (e *corruptReply) Error() string { return "client: corrupt reply: " + e.err.Error() }
func (e *corruptReply) Unwrap() error { return e.err }

// retryable classifies one attempt's failure: injected wire faults,
// per-attempt timeouts, corrupted replies, admission sheds (the
// server said "try again later"), and lost TCP connections (the
// transport redials and resumes the session) are transient;
// everything else (semantic SQL errors, schema mismatches, context
// cancellation) is not.
func retryable(err error) bool {
	var cr *corruptReply
	var ov *server.ErrOverloaded
	var cl *ErrConnLost
	return wire.Retryable(err) || errors.Is(err, errOpTimeout) ||
		errors.As(err, &cr) || errors.As(err, &ov) || errors.As(err, &cl)
}

// errClass names an attempt failure for span attributes — the same
// taxonomy retryable() classifies by, but as a label a trace reader
// can group on.
func errClass(err error) string {
	var cr *corruptReply
	var ov *server.ErrOverloaded
	var cl *ErrConnLost
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errOpTimeout):
		return "timeout"
	case errors.As(err, &cr):
		return "corrupt"
	case errors.As(err, &ov):
		return "overloaded"
	case errors.As(err, &cl):
		return "conn-lost"
	case wire.Retryable(err):
		return "fault"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "error"
	}
}

// Degradable reports whether err is an infrastructure failure the
// executor may respond to by re-siting the plan (as opposed to a
// semantic error that would fail on any plan): a resilience-layer
// OpError whose cause was transient, or a bare wire fault. A stale
// metadata refusal never is: every candidate of the plan's search was
// costed on the same superseded metadata, so the query is planned
// again instead.
func Degradable(err error) bool {
	if errors.Is(err, server.ErrStaleMetadata) {
		return false
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return oe.Timeout || oe.Err == nil || retryable(oe.Err)
	}
	return wire.Retryable(err)
}

// IsTimeout reports whether err is (or wraps) a deadline expiry.
func IsTimeout(err error) bool {
	var oe *OpError
	return errors.As(err, &oe) && oe.Timeout
}

// jitterPool hands each connection a lockable jitter source.
type jitterSrc struct {
	mu  sync.Mutex //tango:lock-order jitter latch
	rng *rand.Rand
}

func newJitterSrc(seed int64) *jitterSrc {
	return &jitterSrc{rng: rand.New(rand.NewSource(seed))}
}

func (j *jitterSrc) backoff(attempt int) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return backoff(attempt, j.rng)
}

// baseCtx resolves the connection's base context.
func (c *Conn) baseCtx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// countRetry bumps the retry telemetry for one op.
func (c *Conn) countRetry(op string) {
	if c.Metrics != nil {
		c.Metrics.Counter("tango_client_retries_total", telemetry.Labels{"op": op}).Inc()
	}
}

// countTimeout bumps the per-call-deadline telemetry for one op.
func (c *Conn) countTimeout(op string) {
	if c.Metrics != nil {
		c.Metrics.Counter("tango_client_op_timeouts_total", telemetry.Labels{"op": op}).Inc()
	}
}

// countGiveUp bumps the retries-exhausted telemetry for one op.
func (c *Conn) countGiveUp(op string) {
	if c.Metrics != nil {
		c.Metrics.Counter("tango_client_gaveup_total", telemetry.Labels{"op": op}).Inc()
	}
}

// result carries one attempt's outcome out of its goroutine.
type result[T any] struct {
	v   T
	err error
}

// attemptVal runs f once under the per-call deadline and ctx. On
// timeout the call is abandoned: it keeps running in its goroutine and
// a reaper consumes its eventual result, handing any successfully
// produced value to discard (e.g. closing a cursor opened by a
// timed-out OPEN). In process, the abandoned call and its retry run
// concurrently; over TCP, the session's worker runs them in arrival
// order, so the retry waits until the abandoned call finishes. Either
// way its effect, if any, is deduplicated by sequence number. f must
// own every buffer it writes.
func attemptVal[T any](c *Conn, ctx context.Context, f func() (T, error), discard func(T)) (T, error) {
	to := c.Retry.OpTimeout
	if to <= 0 && ctx.Done() == nil {
		return f()
	}
	done := make(chan result[T], 1)
	go func() {
		v, err := f()
		done <- result[T]{v: v, err: err}
	}()
	var timeout <-chan time.Time
	if to > 0 {
		timer := time.NewTimer(to)
		defer timer.Stop()
		timeout = timer.C
	}
	var zero T
	select {
	case r := <-done:
		return r.v, r.err
	case <-timeout:
		abandon(done, discard)
		return zero, errOpTimeout
	case <-ctx.Done():
		abandon(done, discard)
		return zero, ctx.Err()
	}
}

// abandon reaps the eventual result of a timed-out attempt so any
// value it produced (a cursor, a load acknowledgment) is disposed of
// rather than leaked.
func abandon[T any](done <-chan result[T], discard func(T)) {
	go func() {
		r := <-done
		if r.err == nil && discard != nil {
			discard(r.v)
		}
	}()
}

// doValCtx runs one logical idempotent operation with retries under
// an explicit context: each attempt is bounded by OpTimeout,
// transient failures back off exponentially (capped, jittered), and
// the whole loop is bounded by Deadline and ctx. Non-retryable errors
// surface immediately. discard disposes of values produced by
// deadline-abandoned attempts.
//
// f receives the attempt's span so it can propagate the trace context
// across the wire (traceHeader) — each retry attempt is its own child
// span of parent, tagged with its attempt number and, on failure, its
// error class. With tracing off the span is nil and f's header is
// empty.
func doValCtx[T any](c *Conn, ctx context.Context, parent *telemetry.Span, op string, f func(sp *telemetry.Span) (T, error), discard func(T)) (T, error) {
	start := time.Now()
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var zero T
	var last error
	for i := 1; ; i++ {
		asp := parent.Child(op)
		asp.SetInt("attempt", int64(i))
		attemptStart := time.Now()
		v, err := attemptVal(c, ctx, func() (T, error) { return f(asp) }, discard)
		c.observeOp(op, time.Since(attemptStart))
		if err == nil {
			asp.Finish()
			return v, nil
		}
		asp.Set("error_class", errClass(err))
		asp.Finish()
		if errors.Is(err, errOpTimeout) {
			c.countTimeout(op)
		}
		if ctx.Err() != nil {
			return zero, &OpError{Op: op, Attempts: i, Err: ctx.Err()}
		}
		if !retryable(err) {
			return zero, err
		}
		last = err
		if i >= attempts ||
			(c.Retry.Deadline > 0 && time.Since(start) >= c.Retry.Deadline) {
			c.countGiveUp(op)
			return zero, opError(op, i, last)
		}
		c.countRetry(op)
		sleep := c.jitter.backoff(i)
		// An overloaded server suggests its own backoff; honor it as a
		// floor so shed clients stay off a saturated queue.
		var ov *server.ErrOverloaded
		if errors.As(err, &ov) && ov.Backoff > sleep {
			sleep = ov.Backoff
		}
		if c.Retry.Deadline > 0 {
			if rest := c.Retry.Deadline - time.Since(start); rest < sleep {
				sleep = rest
			}
		}
		if sleep > 0 {
			t := time.NewTimer(sleep)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return zero, &OpError{Op: op, Attempts: i, Err: ctx.Err()}
			}
			t.Stop()
		}
	}
}

// doVal is doValCtx under the connection's base context and active
// trace parent.
func doVal[T any](c *Conn, op string, f func(sp *telemetry.Span) (T, error), discard func(T)) (T, error) {
	return doValCtx(c, c.baseCtx(), c.TraceSpan(), op, f, discard)
}

// opError wraps the final failure of an exhausted retry loop.
func opError(op string, attempts int, last error) *OpError {
	oe := &OpError{Op: op, Attempts: attempts}
	if errors.Is(last, errOpTimeout) {
		oe.Timeout = true
	} else {
		oe.Err = last
	}
	return oe
}
