// Package itertest is the conformance table of the rel.Iterator
// contract: every iterator type in rel, xxl, engine, client and
// telemetry runs the same checks, built over fault-injecting inputs
// that, like every producer, reuse their row memory: a consumer that
// keeps a row past the batch it came in without copying it keeps
// poison. It is imported only by tests.
package itertest

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tango/internal/rel"
	"tango/internal/types"
)

// ErrInjected is the fault a Child raises.
var ErrInjected = errors.New("itertest: injected fault")

// Poisoned is a producer's rows under the row-lifetime rule at its
// strictest: it hands out copies of in's rows that it owns, and when
// the next batch is asked for, or at Close, it overwrites the values of
// the last batch with Poison and their strings' bytes with '#'. Every producer in a conformance table is
// read through one, and every Child serves its rows through one.
func Poisoned(in rel.Iterator) rel.Iterator { return &poisoned{in: in} }

// Poison is the value a row kept past its batch turns into.
var Poison = types.Str("itertest: row kept past its batch")

type poisoned struct {
	in   rel.Iterator
	rows types.Arena   // copies of the last batch's rows
	out  []types.Tuple // the last batch as handed out
}

func (p *poisoned) Schema() types.Schema { return p.in.Schema() }
func (p *poisoned) Open() error          { p.poison(); return p.in.Open() }
func (p *poisoned) Close() error         { p.poison(); return p.in.Close() }

func (p *poisoned) NextBatch(dst []types.Tuple) (int, error) {
	p.poison()
	n, err := p.in.NextBatch(dst)
	for i, t := range dst[:n] {
		dst[i] = p.rows.Copy(t)
	}
	p.out = append(p.out[:0], dst[:n]...)
	return n, err
}

// poison overwrites the last batch, its strings' bytes too, and takes
// its memory back.
func (p *poisoned) poison() {
	for _, t := range p.out {
		for i, v := range t {
			if s := v.AsString(); v.Kind() == types.KindString && s != "" {
				// The bytes are the copy p.rows made: p's to overwrite.
				b := unsafe.Slice(unsafe.StringData(s), len(s))
				for j := range b {
					b[j] = '#'
				}
			}
			t[i] = Poison
		}
	}
	p.out = p.out[:0]
	p.rows.Reset()
}

// Child is a fault-injecting input. It serves its rows in short
// batches (2, 3, 1, 2, ... rows, never more than len(dst)) through
// Poisoned, can fail its Open or its first NextBatch, rejects use
// before Open or after Close, and counts its Closes.
type Child struct {
	rows     *rel.Relation
	failOpen bool
	failPull bool

	opened bool
	pos    int
	calls  int
	closes int
}

// Schema returns the rows' schema.
func (c *Child) Schema() types.Schema { return c.rows.Schema }

// Open starts the rows again, or fails if the child is set to.
func (c *Child) Open() error {
	if c.failOpen {
		return ErrInjected
	}
	c.opened, c.pos, c.calls = true, 0, 0
	return nil
}

// NextBatch serves the next short batch, or fails if the child is set
// to or is used out of its lifecycle.
func (c *Child) NextBatch(dst []types.Tuple) (int, error) {
	switch {
	case !c.opened:
		return 0, errors.New("itertest: NextBatch on an input that is not open")
	case len(dst) == 0:
		return 0, errors.New("itertest: NextBatch with an empty dst")
	case c.failPull:
		return 0, ErrInjected
	}
	c.calls++
	n := min(len(dst), c.calls%3+1, len(c.rows.Tuples)-c.pos)
	copy(dst, c.rows.Tuples[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// Close counts the call.
func (c *Child) Close() error { c.opened = false; c.closes++; return nil }

// Case is one iterator type under test.
type Case struct {
	Name string
	// Inputs are the rows of each input, in the order Build takes them.
	Inputs []*rel.Relation
	// Build makes the iterator over the given inputs.
	Build func(in []rel.Iterator) rel.Iterator
	// Want is the output the iterator must produce, as a list.
	Want *rel.Relation
}

// Run checks every case: the output read with len(dst) of 1, 3 and
// 256 is list-equal to Want and end of stream repeats; Close, called
// twice, reaches every input exactly once after end of stream, without
// Open, and after each input in turn fails its Open or its first
// NextBatch — a fault that must surface from Open or NextBatch; and
// once the case's iterators are closed, every goroutine they started
// has exited.
func Run(t *testing.T, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			defer Goroutines(t)()
			for _, size := range []int{1, 3, 256} {
				in, it := c.build(-1, false)
				got, err := exercise(t, fmt.Sprintf("after end of stream (len(dst)=%d)", size), it, in, size)
				if err != nil {
					t.Fatalf("len(dst)=%d: %v", size, err)
				}
				if !rel.EqualAsLists(got, c.Want) {
					t.Errorf("len(dst)=%d: got\n%vwant\n%v", size, got, c.Want)
				}
			}
			in, it := c.build(-1, false)
			checkClose(t, "without Open", it, in)
			for i := range c.Inputs {
				for _, pull := range []bool{false, true} {
					what := fmt.Sprintf("input %d failing its Open", i)
					if pull {
						what = fmt.Sprintf("input %d failing its first NextBatch", i)
					}
					in, it := c.build(i, pull)
					if _, err := exercise(t, "after "+what, it, in, 256); !errors.Is(err, ErrInjected) {
						t.Errorf("%s: got error %v, want the injected fault", what, err)
					}
				}
			}
		})
	}
}

// build makes the iterator over fresh children; input fail (if >= 0)
// fails its first NextBatch when pull is set, else its Open.
func (c Case) build(fail int, pull bool) ([]*Child, rel.Iterator) {
	children := make([]*Child, len(c.Inputs))
	its := make([]rel.Iterator, len(c.Inputs))
	for i, r := range c.Inputs {
		children[i] = &Child{rows: r, failOpen: i == fail && !pull, failPull: i == fail && pull}
		its[i] = Poisoned(children[i])
	}
	return children, Poisoned(c.Build(its))
}

// exercise opens it, reads it to the end with len(dst) = size —
// checking the count bounds and that end of stream repeats, and
// keeping copies of the rows — and then closes it with checkClose.
func exercise(t *testing.T, when string, it rel.Iterator, in []*Child, size int) (*rel.Relation, error) {
	defer checkClose(t, when, it, in)
	if err := it.Open(); err != nil {
		return nil, err
	}
	var rows types.Arena
	out := rel.New(it.Schema())
	dst := make([]types.Tuple, size)
	for {
		n, err := it.NextBatch(dst)
		switch {
		case err != nil:
			return nil, err
		case n < 0 || n > size:
			return nil, fmt.Errorf("NextBatch returned %d rows into a dst of %d", n, size)
		case n > 0:
			for _, r := range dst[:n] {
				rows.Keep(r)
			}
			continue
		}
		if n, err := it.NextBatch(dst); n != 0 || err != nil {
			return nil, fmt.Errorf("NextBatch after end of stream: n=%d err=%v", n, err)
		}
		out.Tuples = rows.Rows()
		return out, nil
	}
}

// checkClose closes it twice and checks every input was closed once.
func checkClose(t *testing.T, when string, it rel.Iterator, in []*Child) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := it.Close(); err != nil {
			t.Errorf("%s: Close #%d: %v", when, i+1, err)
		}
	}
	for i, c := range in {
		if c.closes != 1 {
			t.Errorf("%s: input %d closed %d times, want 1", when, i, c.closes)
		}
	}
}

// Goroutines snapshots the goroutine count and returns a check that
// fails t unless the count is back at that level within five seconds:
// a worker or fetch goroutine must exit once what started
// it is closed. Use it as `defer itertest.Goroutines(t)()`.
func Goroutines(t testing.TB) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// Ints builds an all-integer relation; cols names the columns,
// separated by spaces.
func Ints(cols string, rows ...[]int64) *rel.Relation {
	var schema types.Schema
	for _, name := range strings.Fields(cols) {
		schema.Cols = append(schema.Cols, types.Column{Name: name, Kind: types.KindInt})
	}
	r := rel.New(schema)
	for _, row := range rows {
		t := make(types.Tuple, len(row))
		for i, v := range row {
			t[i] = types.Int(v)
		}
		r.Append(t)
	}
	return r
}
