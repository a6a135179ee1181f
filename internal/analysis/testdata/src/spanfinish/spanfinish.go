// Package spanfinish seeds lifecycle violations for the spanfinish
// analyzer: spans created but never Finished, finishes reachable only
// past early returns, and the sanctioned shapes (defer, escape,
// AddChild) that must stay quiet.
package spanfinish

import "time"

// span is shaped like telemetry.Span, which the analyzer matches
// structurally.
type span struct{ name string }

func (s *span) Child(name string) *span           { return &span{name: name} }
func (s *span) AddChild(name string, d int) *span { return &span{name: name} }
func (s *span) Finish() time.Duration             { return 0 }
func (s *span) Set(k, v string)                   {}
func (s *span) SetInt(k string, v int64)          {}

// NewSpan mimics the telemetry constructor.
func NewSpan(name string) *span { return &span{name: name} }

// NewRemoteSpan mimics the server-side constructor.
func NewRemoteSpan(name string, traceID uint64) *span { return &span{name: name} }

func precondition() bool { return false }

// neverFinished mints a span and drops it on the floor.
func neverFinished() {
	sp := NewSpan("query") // want `sp is created but never Finished`
	sp.Set("k", "v")
}

// remoteNeverFinished does the same through the remote constructor.
func remoteNeverFinished() {
	rsp := NewRemoteSpan("dbms.fetch", 7) // want `rsp is created but never Finished`
	rsp.SetInt("rows", 1)
}

// childNeverFinished leaks a child while the parent is handled.
func childNeverFinished(parent *span) {
	c := parent.Child("fetch") // want `c is created but never Finished`
	c.SetInt("attempt", 1)
}

// leakOnEarlyReturn finishes only on the success path; the
// precondition return leaks the live span.
func leakOnEarlyReturn() error {
	sp := NewSpan("query")
	sp.Set("k", "v")
	if precondition() {
		return nil // want `return leaks span sp: created at line \d+`
	}
	sp.Finish()
	return nil
}

// finishAfterChecks finishes the child only after checking the result,
// so both checks' returns leak it — the mutants only spanfinish catches
// (DESIGN.md §4c). Child cannot fail, so no error check after it is
// the creation's own: the first one leaks too.
func finishAfterChecks(parent *span, run func() (int, error), check func(int) error) (int, error) {
	sp := parent.Child("optimize")
	n, err := run()
	if err != nil {
		return 0, err // want `return leaks span sp: created at line \d+`
	}
	if cerr := check(n); cerr != nil {
		return 0, cerr // want `return leaks span sp: created at line \d+`
	}
	sp.Finish()
	return n, nil
}

// deferred is the sanctioned shape: defer the Finish right after
// creation, annotate freely after.
func deferred() error {
	sp := NewSpan("query")
	defer sp.Finish()
	sp.Set("k", "v")
	if precondition() {
		return nil
	}
	return nil
}

// finishedOnAllPaths finishes explicitly before every return; no
// return sits between creation and the first Finish, so no finding.
func finishedOnAllPaths() error {
	sp := NewSpan("query")
	if precondition() {
		sp.Finish()
		return nil
	}
	sp.Finish()
	return nil
}

// escaped hands ownership to the caller; no finding.
func escaped() *span {
	sp := NewSpan("query")
	sp.Set("k", "v")
	return sp
}

// passedOn hands the span to a helper that owns finishing it.
func passedOn() {
	sp := NewSpan("query")
	finishLater(sp)
}

func finishLater(sp *span) { sp.Finish() }

// closureFinish finishes inside a deferred closure; the use is
// recorded through the literal, so no finding.
func closureFinish() error {
	sp := NewSpan("query")
	defer func() { sp.Finish() }()
	return nil
}

// addChildExempt grafts an already-finished child; AddChild is not an
// acquisition and demands no Finish.
func addChildExempt(parent *span) {
	c := parent.AddChild("optimize", 42)
	c.Set("cost", "1.5")
}

// suppressed leaks on purpose; the directive keeps the finding quiet
// and the harness verifies no diagnostic surfaces here.
func suppressed() {
	//lint:ignore spanfinish fixture: the leak is the point of this test
	sp := NewSpan("query")
	sp.Set("k", "v")
}
