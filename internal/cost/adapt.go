package cost

import (
	"math"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/telemetry"
)

// windowLen is how many of a formula's latest observations its fit
// weighs: calibration's samples first, then runtime feedback's, each
// new one aging out the oldest.
const windowLen = 16

// wellConditioned is the least 1 − cos² between a two-factor window's
// statistic columns for solving its normal equations: below it, the
// rows are one shape up to rounding, which the solve would amplify.
const wellConditioned = 1e-6

// ObservedOp is one measured execution of a plan node, for the §7
// feedback loop: a middleware operator's volumes and self time, from
// the instrumented iterators, or a transfer's bytes and elapsed time,
// from its client.Feedback.
type ObservedOp struct {
	// Node picks the factors to move; a selection's predicate gives f(P).
	Node *algebra.Node
	// InBytes/InCard are what the node's inputs produced (a transfer's
	// bytes moved); OutBytes is what the node produced.
	InBytes, OutBytes, InCard float64
	// Micros is the self time, or a transfer's elapsed time, in µs.
	Micros float64
}

// FromStats is a middleware operator's measured execution as one
// observation of its plan node n: its inputs' volumes, its output
// bytes and its self time, from the instrumented iterator's stats.
func FromStats(n *algebra.Node, s *telemetry.OpStats) ObservedOp {
	return ObservedOp{
		Node:     n,
		InBytes:  float64(s.InputBytes()),
		OutBytes: float64(s.Bytes),
		InCard:   float64(s.InputRows()),
		Micros:   micros(s.SelfTime()),
	}
}

// FromFeedback is a statement's feedback — a transfer's, or the one
// that ran a DBMS-resident operator — as one observation of plan node
// n: the bytes it moved and its elapsed time.
func FromFeedback(n *algebra.Node, fb client.Feedback) ObservedOp {
	return ObservedOp{Node: n, InBytes: float64(fb.Bytes), Micros: micros(fb.Elapsed)}
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// window is one formula's latest observations as least-squares rows,
// each its own terms' statistics and its time less the shared terms:
// a ring overwritten in place.
type window struct {
	x [windowLen][2]float64
	y [windowLen]float64
	n int // rows ever written; the ring holds the last windowLen
}

// Observe adds a measured execution to its formula's window and fits
// the formula's own factors to the window: p = Σxy / Σx² for one.
// Two (TAGGR^M's, TAGGR^D's) take the normal equations' solution when
// it is well conditioned and positive, and otherwise scale together by
// the one least-squares k along their current values, which for one
// factor is that same p. An execution with no time, no own term, no
// volume, or no time left after the shared terms is not a row, and a
// fit that is not finite and positive moves nothing.
func (m *Model) Observe(o ObservedOp) {
	fm := m.F.terms(o.Node, o.Node.Loc(), o.InBytes, o.OutBytes, o.InCard)
	var own [2]*float64
	var x [2]float64
	y, k := o.Micros, 0
	for _, t := range fm.t[:fm.n] {
		if t.shared {
			y -= t.cost()
			continue
		}
		own[k], x[k] = t.f, t.a*t.b
		k++
	}
	if !finitePos(y) || !finitePos(x[0]+x[1]) {
		return
	}
	w := m.windows[own[0]]
	if w == nil {
		w = new(window)
		m.windows[own[0]] = w
	}
	w.x[w.n%windowLen], w.y[w.n%windowLen] = x, y
	w.n++
	w.fit(own[:k])
}

// fit sets the factors p to the least-squares fit of the window's rows.
func (w *window) fit(p []*float64) {
	var xx [2][2]float64
	var xy [2]float64
	var vv, vy float64 // the rows' current predictions v, against y
	for i, y := range w.y[:min(w.n, windowLen)] {
		v := 0.0
		for j, f := range p {
			v += *f * w.x[i][j]
			xy[j] += w.x[i][j] * y
			for l := range p {
				xx[j][l] += w.x[i][j] * w.x[i][l]
			}
		}
		vv += v * v
		vy += v * y
	}
	if len(p) == 2 {
		det := xx[0][0]*xx[1][1] - xx[0][1]*xx[1][0]
		p0 := (xy[0]*xx[1][1] - xy[1]*xx[0][1]) / det
		p1 := (xx[0][0]*xy[1] - xx[1][0]*xy[0]) / det
		if det > wellConditioned*xx[0][0]*xx[1][1] && finitePos(p0) && finitePos(p1) {
			*p[0], *p[1] = p0, p1
			return
		}
	}
	if k := vy / vv; finitePos(*p[0]*k) && finitePos(*p[len(p)-1]*k) {
		for _, f := range p {
			*f *= k
		}
	}
}

// Samples reports how many observations the window fitting n's
// formula holds.
func (m *Model) Samples(n *algebra.Node) int {
	fm := m.F.terms(n, n.Loc(), 0, 0, 0)
	own := fm.t[0]
	if own.shared {
		own = fm.t[1]
	}
	if w := m.windows[own.f]; w != nil {
		return min(w.n, windowLen)
	}
	return 0
}

func finitePos(v float64) bool { return v > 0 && v < math.Inf(1) }
