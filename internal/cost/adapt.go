package cost

import (
	"math"
	"time"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/telemetry"
)

// adaptRate is the EWMA rate at which one observation moves a factor.
const adaptRate = 0.2

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

// Observe refines the factor(s) of one algorithm from a measured
// execution and reports whether any moved. A transfer (T^M, T^D) takes
// an EWMA step toward its observed µs per byte: f' = α·obs + (1 − α)·f.
// A middleware operator's own terms, re-priced at the observed sizes
// (so the update corrects the factor, not the estimate), predict its
// time less its shared terms; each own factor moves by
// f' = f·(1 + α·(ratio − 1)), the observed/predicted ratio clamped to
// [0.1, 10]. DBMS-resident operators are skipped: the middleware sees
// their cost only mixed into transfer time.
func (f *Factors) Observe(o ObservedOp) bool {
	if o.Micros <= 0 {
		return false
	}
	loc := o.Node.Loc()
	fm := f.terms(o.Node, loc, o.InBytes, o.OutBytes, o.InCard)
	if o.Node.Op == algebra.OpTM || o.Node.Op == algebra.OpTD {
		t := fm.t[0]
		if t.a <= 0 {
			return false
		}
		*t.f = adaptRate*(o.Micros/t.a) + (1-adaptRate)*(*t.f)
		return true
	}
	if loc != algebra.LocMW {
		return false
	}
	observed, predicted := o.Micros, 0.0
	for _, t := range fm.t[:fm.n] {
		if t.shared {
			observed -= t.cost()
		} else {
			predicted += t.cost()
		}
	}
	if observed <= 0 {
		observed = o.Micros / 10
	}
	if predicted <= 0 {
		return false
	}
	ratio := min(max(observed/predicted, 0.1), 10)
	k := 1 + adaptRate*(ratio-1)
	for _, t := range fm.t[:fm.n] {
		if !t.shared {
			*t.f *= k
		}
	}
	return true
}

// fit solves the factors one operator's samples leave unknown: a
// sample's time, less its formula's shared terms, is the sum of its
// own terms. One own factor is solved from one sample, two (TAGGR^M's,
// TAGGR^D's) from two samples of different shapes by solve2. A factor
// the samples cannot separate keeps its value, and the empty sample of
// a failed calibration step fits nothing.
func (f *Factors) fit(s ...ObservedOp) {
	var x [2][2]float64 // each sample's own-term statistics
	var rhs [2]float64  // each sample's time left to its own terms
	var own [2]*float64
	for i, o := range s {
		if o.Node == nil {
			return
		}
		fm := f.terms(o.Node, o.Node.Loc(), o.InBytes, o.OutBytes, o.InCard)
		rhs[i] = o.Micros
		k := 0
		for _, t := range fm.t[:fm.n] {
			if t.shared {
				rhs[i] -= t.cost()
			} else {
				x[i][k], own[k] = t.a*t.b, t.f
				k++
			}
		}
	}
	if len(s) == 1 {
		if p := rhs[0] / x[0][0]; p > 0 && p < math.Inf(1) {
			*own[0] = p
		}
	} else if p1, p2, ok := solve2(x[0][0], x[0][1], rhs[0], x[1][0], x[1][1], rhs[1]); ok {
		*own[0], *own[1] = p1, p2
	}
}

// solve2 solves {p1·x1 + p2·y1 = c1; p1·x2 + p2·y2 = c2} requiring a
// well-conditioned positive solution.
func solve2(x1, y1, c1, x2, y2, c2 float64) (p1, p2 float64, ok bool) {
	det := x1*y2 - x2*y1
	if det == 0 {
		return 0, 0, false
	}
	p1 = (c1*y2 - c2*y1) / det
	p2 = (x1*c2 - x2*c1) / det
	if p1 <= 0 || p2 <= 0 || p1 != p1 || p2 != p2 {
		return 0, 0, false
	}
	return p1, p2, true
}
