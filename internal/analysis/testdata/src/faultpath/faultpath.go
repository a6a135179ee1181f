// Package faultpath seeds resilience-contract violations for the
// faultpath analyzer: functions that sever their caller's context by
// minting a fresh one, and fault classification that breaks on
// wrapped errors.
package faultpath

import (
	"context"
	"errors"

	"tango/internal/client"
	"tango/internal/wire"
)

// severs receives a context and then mints a fresh one: cancellation
// no longer reaches the call below.
func severs(ctx context.Context) context.Context {
	return context.Background() // want `context\.Background\(\) inside a function that receives ctx`
}

// seversTODO is the TODO variant of the same bug.
func seversTODO(ctx context.Context) context.Context {
	return context.TODO() // want `context\.TODO\(\) inside a function that receives ctx`
}

// seversInLiteral drops the context inside a nested closure, where
// the outer parameter is still in scope.
func seversInLiteral(ctx context.Context) func() context.Context {
	return func() context.Context {
		return context.Background() // want `context\.Background\(\) inside a function that receives ctx`
	}
}

// retries hands each attempt a fresh context — the mutant only
// faultpath catches (DESIGN.md §4c): cancelling the query no longer
// stops its retries.
func retries(ctx context.Context, attempt func(context.Context) error) error {
	var err error
	for i := 0; i < 3; i++ {
		if err = attempt(context.Background()); err == nil { // want `context\.Background\(\) inside a function that receives ctx`
			return nil
		}
	}
	return err
}

// threads is the clean idiom: the caller's context flows through.
func threads(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}

// roots has no context parameter, so minting one is legitimate.
func roots() context.Context {
	return context.Background()
}

// optsOut explicitly discards its context parameter; the blank name
// is the sanctioned opt-out.
func optsOut(_ context.Context) context.Context {
	return context.Background()
}

// suppressed documents a deliberate detach (a background janitor that
// must outlive the request).
func suppressed(ctx context.Context) context.Context {
	//lint:ignore faultpath the janitor must outlive the request context
	return context.Background()
}

// asserts classifies a resilience failure with a bare type assertion:
// any wrapping (fmt.Errorf %w, OpError) makes it miss.
func asserts(err error) bool {
	_, ok := err.(*wire.FaultError) // want `type assertion on wire\.FaultError misses wrapped errors`
	return ok
}

// assertsOp does the same on the client's typed failure — the shape
// of the mutant only faultpath catches in client.Degradable (DESIGN.md
// §4c): a wrapped OpError is no longer degradable.
func assertsOp(err error) bool {
	if oe, ok := err.(*client.OpError); ok { // want `type assertion on client\.OpError misses wrapped errors`
		return oe.Timeout
	}
	return false
}

// switches hides the same bug in a type switch.
func switches(err error) string {
	switch err.(type) {
	case *wire.FaultError: // want `type assertion on wire\.FaultError misses wrapped errors`
		return "fault"
	case *client.OpError: // want `type assertion on client\.OpError misses wrapped errors`
		return "op"
	default:
		return "other"
	}
}

// classifies is the clean idiom: errors.As survives wrapping, as do
// the packages' own helpers.
func classifies(err error) bool {
	var fe *wire.FaultError
	if errors.As(err, &fe) {
		return true
	}
	var oe *client.OpError
	if errors.As(err, &oe) {
		return oe.Timeout
	}
	return wire.Retryable(err) || client.Degradable(err)
}
