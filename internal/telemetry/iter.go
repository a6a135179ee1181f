package telemetry

import (
	"fmt"
	"strings"
	"time"

	"tango/internal/rel"
	"tango/internal/types"
)

// OpStats is the measured execution profile of one physical operator:
// NextBatch-call and row counts, produced bytes, and cumulative
// (inclusive) wall time spent in Open/NextBatch/Close. OpStats form a
// tree mirroring the operator tree; self time is inclusive time minus
// the children's.
//
// Fields are written by a single goroutine (the one driving the
// iterator) and must only be read after the query completes.
type OpStats struct {
	// Op is the operator label, e.g. "TAggr^M" or "scan(POSITION)".
	Op string
	// Node optionally links back to the plan node that produced the
	// operator (an *algebra.Node for middleware plans); used by the
	// adaptive cost loop to compare estimates against observations.
	Node interface{}

	Opens int64
	// Nexts counts NextBatch calls, the one that returned end of stream
	// included.
	Nexts int64
	Rows  int64
	Bytes int64
	// Time is the inclusive wall time (children included).
	Time time.Duration

	Children []*OpStats
}

// SelfTime is the operator's own wall time: inclusive minus children.
func (s *OpStats) SelfTime() time.Duration {
	d := s.Time
	for _, c := range s.Children {
		d -= c.Time
	}
	if d < 0 {
		d = 0
	}
	return d
}

// InputRows sums the rows produced by the direct children.
func (s *OpStats) InputRows() int64 {
	var n int64
	for _, c := range s.Children {
		n += c.Rows
	}
	return n
}

// InputBytes sums the bytes produced by the direct children.
func (s *OpStats) InputBytes() int64 {
	var n int64
	for _, c := range s.Children {
		n += c.Bytes
	}
	return n
}

// Walk visits the stats tree pre-order.
func (s *OpStats) Walk(fn func(*OpStats)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Format renders the annotated operator tree (the body of EXPLAIN
// ANALYZE):
//
//	TAggr^M rows=733 nexts=4 bytes=23456 time=1.20ms self=0.80ms
//	└─ Sort^M rows=8400 ...
func (s *OpStats) Format() string {
	var b strings.Builder
	s.format(&b, "", "")
	return b.String()
}

func (s *OpStats) format(b *strings.Builder, prefix, childPrefix string) {
	b.WriteString(prefix)
	fmt.Fprintf(b, "%s rows=%d nexts=%d bytes=%d time=%s self=%s\n",
		s.Op, s.Rows, s.Nexts, s.Bytes, fmtDuration(s.Time), fmtDuration(s.SelfTime()))
	for i, c := range s.Children {
		if i == len(s.Children)-1 {
			c.format(b, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			c.format(b, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// Iter wraps a rel.Iterator and measures it. It satisfies rel.Iterator
// itself, so instrumentation composes transparently with any operator
// tree.
type Iter struct {
	in    rel.Input
	stats *OpStats
	// Sink, when set, receives the stats once on the first Close — used
	// to flush per-operator metrics into a Registry.
	Sink func(*OpStats)

	flushed bool
}

// Instrument wraps an iterator. children link the stats of already
// instrumented inputs into the tree (pass the instrumented input
// iterators; non-instrumented inputs are ignored).
func Instrument(op string, node interface{}, in rel.Iterator, children ...rel.Iterator) *Iter {
	st := &OpStats{Op: op, Node: node}
	for _, c := range children {
		if ci, ok := c.(*Iter); ok && ci != nil {
			st.Children = append(st.Children, ci.stats)
		}
	}
	return &Iter{in: rel.In(in), stats: st}
}

// Stats returns the operator's stats node.
func (it *Iter) Stats() *OpStats { return it.stats }

// Unwrap returns the wrapped iterator, so code that type-asserts on
// concrete operator types (e.g. index-scan rewrites) can see through
// the instrumentation.
func (it *Iter) Unwrap() rel.Iterator { return it.in.Iterator() }

// Schema returns the wrapped iterator's schema.
func (it *Iter) Schema() types.Schema { return it.in.Schema() }

// Open opens the wrapped iterator, timing it.
func (it *Iter) Open() error {
	start := time.Now()
	err := it.in.Open()
	it.stats.Time += time.Since(start)
	it.stats.Opens++
	return err
}

// NextBatch pulls the next batch, timing the call and counting it, its
// rows and their bytes.
func (it *Iter) NextBatch(dst []types.Tuple) (int, error) {
	start := time.Now()
	n, err := it.in.NextBatch(dst)
	it.stats.Time += time.Since(start)
	it.stats.Nexts++
	it.stats.Rows += int64(n)
	for _, t := range dst[:n] {
		it.stats.Bytes += int64(t.ByteSize())
	}
	return n, err
}

// Close closes the wrapped iterator and flushes the stats to the Sink
// (once).
func (it *Iter) Close() error {
	start := time.Now()
	err := it.in.Close()
	it.stats.Time += time.Since(start)
	if !it.flushed && it.Sink != nil {
		it.flushed = true
		it.Sink(it.stats)
	}
	return err
}

// RecordOp flushes one operator's stats into the registry as
// per-operator series: tango_operator_seconds{engine,op} (self time),
// a rows-per-execution histogram, and rows/nexts/bytes totals.
func RecordOp(reg *Registry, engine string, s *OpStats) {
	if reg == nil || s == nil {
		return
	}
	l := Labels{"engine": engine, "op": s.Op}
	reg.Histogram("tango_operator_seconds", l, DurationBuckets).Observe(s.SelfTime().Seconds())
	reg.Histogram("tango_operator_rows", l, CountBuckets).Observe(float64(s.Rows))
	reg.Counter("tango_operator_rows_total", l).Add(s.Rows)
	reg.Counter("tango_operator_nexts_total", l).Add(s.Nexts)
	reg.Counter("tango_operator_bytes_total", l).Add(s.Bytes)
}

// RecordOpStats flushes a whole stats tree (every operator) into the
// registry via RecordOp.
func RecordOpStats(reg *Registry, engine string, root *OpStats) {
	if reg == nil || root == nil {
		return
	}
	root.Walk(func(s *OpStats) { RecordOp(reg, engine, s) })
}

// SinkTo returns a Sink function recording a single operator into the
// registry (used by engine-side instrumentation, where each operator
// flushes itself on Close).
func SinkTo(reg *Registry, engine string) func(*OpStats) {
	return func(s *OpStats) { RecordOp(reg, engine, s) }
}
