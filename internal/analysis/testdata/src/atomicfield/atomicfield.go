// Package atomicfield seeds the mixed atomic/plain access pattern the
// atomicfield analyzer exists to catch: the same struct field touched
// through sync/atomic in one place and with plain loads or stores in
// another.
package atomicfield

import "sync/atomic"

type counter struct {
	n    int64 // mixed: atomic in inc, plain in read/reset
	hot  int64 // consistent: always atomic
	cold int64 // consistent: never atomic
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) read() int64 {
	return c.n // want `field n is accessed with sync/atomic at .* but plainly here`
}

func (c *counter) reset() {
	c.n = 0 // want `field n is accessed with sync/atomic at .* but plainly here`
}

// gauge reads n plainly inside a metrics callback — the mutant only
// atomicfield catches (DESIGN.md §4c): the race detector sees it only
// when a scrape overlaps an increment in some test.
func (c *counter) gauge() func() float64 {
	return func() float64 { return float64(c.n) } // want `field n is accessed with sync/atomic at .* but plainly here`
}

func (c *counter) incHot() {
	atomic.AddInt64(&c.hot, 1)
}

func (c *counter) loadHot() int64 {
	return atomic.LoadInt64(&c.hot)
}

func (c *counter) bumpCold() {
	c.cold++
}

// newCounter initializes n before the value is shared; the directive
// records why the plain store is safe, and the harness verifies the
// finding stays quiet.
func newCounter() *counter {
	c := &counter{}
	//lint:ignore atomicfield constructor: the value is not shared yet
	c.n = 42
	return c
}
