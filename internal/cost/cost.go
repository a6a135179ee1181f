// Package cost implements the middleware's Cost Estimator: the cost
// formulas of Figure 6 of the paper (plus the "generic" DBMS formulas
// for scan, sort, and join), the cost factors they weigh statistics
// with, Du et al.-style calibration that derives the factors from
// sample runs, and the feedback loop that refits them from measured
// execution (the "adaptable" in the paper's title). All costs are in
// microseconds, the paper's unit.
package cost

import (
	"math"

	"tango/internal/algebra"
	"tango/internal/sqlast"
	"tango/internal/stats"
)

// Factors are the calibration constants (µs per byte unless noted).
// The paper's p_tm, p_td, p_sem, p_taggm1, p_taggm2, p_taggd1,
// p_taggd2 appear under those names; the rest parameterize the generic
// DBMS formulas and the remaining middleware algorithms.
type Factors struct {
	TM      float64 // p_tm: TRANSFER^M per byte
	TD      float64 // p_td: TRANSFER^D per byte
	SelM    float64 // p_sem: FILTER^M per byte per predicate term
	TAggrM1 float64 // p_taggm1: TAGGR^M per input byte
	TAggrM2 float64 // p_taggm2: TAGGR^M per output byte
	TAggrD1 float64 // p_taggd1: TAGGR^D per input byte
	TAggrD2 float64 // p_taggd2: TAGGR^D per output byte
	SortM   float64 // SORT^M per byte per log2(card)
	SortD   float64 // generic DBMS sort per byte per log2(card)
	JoinM   float64 // JOIN^M / TJOIN^M per byte moved (in+out)
	JoinD   float64 // generic DBMS join per byte moved
	ScanD   float64 // full table scan per byte
	DupM    float64 // DUPELIM^M per byte
	CoalM   float64 // COALESCE^M per byte
}

// DefaultFactors are rough priors used before calibration (a modern
// machine moves roughly a byte per few nanoseconds through these code
// paths; transfers are an order of magnitude more expensive than
// scans).
func DefaultFactors() Factors {
	return Factors{
		TM: 0.02, TD: 0.03,
		SelM:    0.002,
		TAggrM1: 0.01, TAggrM2: 0.01,
		TAggrD1: 0.2, TAggrD2: 0.2,
		SortM: 0.001, SortD: 0.001,
		JoinM: 0.005, JoinD: 0.004,
		ScanD: 0.002,
		DupM:  0.004, CoalM: 0.003,
	}
}

// Model prices plans: statistics come from the estimator, weights from
// the factors, which Observe fits. Its windows are keyed by addresses
// in F, so a Model is built by NewModel and never copied.
type Model struct {
	F       Factors
	Est     *stats.Estimator
	windows map[*float64]*window
}

// NewModel builds a model with default factors and empty windows.
func NewModel(est *stats.Estimator) *Model {
	return &Model{F: DefaultFactors(), Est: est, windows: map[*float64]*window{}}
}

// PlanCost returns the estimated cost (µs) of the whole plan: the sum
// of the per-operator costs given the derived statistics.
func (m *Model) PlanCost(n *algebra.Node) (float64, error) {
	var total float64
	_, _, err := m.Est.Snapshot().Estimate(n, func(op *algebra.Node, out *stats.RelStats, in []*stats.RelStats) {
		total += m.OpCost(op, op.Loc(), out, in...)
	})
	return total, err
}

// OpCost prices one operator executing at loc (its inputs excluded)
// from its output statistics and its inputs' (left, then right): the
// sum of its formula's terms.
func (m *Model) OpCost(n *algebra.Node, loc algebra.Location, out *stats.RelStats, in ...*stats.RelStats) float64 {
	if n.Op == algebra.OpCoalesce && loc != algebra.LocMW {
		return math.Inf(1) // coalescing has no SQL translation
	}
	var inBytes, inCard float64
	for _, s := range in {
		inBytes += s.Size()
	}
	if len(in) > 0 {
		inCard = in[0].Card
	}
	return m.F.terms(n, loc, inBytes, out.Size(), inCard).cost()
}

// A term is one factor × statistic product of a cost formula, the
// statistic a × b of the operator's volumes. A shared term is priced
// with another algorithm's factor (TAGGR^M's internal sort, at SortM):
// Observe deducts it from the measured time and fits only the other
// terms' factors.
type term struct {
	f      *float64 // a field of the Factors the formula is stated over
	a, b   float64
	shared bool
}

// cost is the term's µs, multiplied in the order (factor × a) × b.
func (t term) cost() float64 { return *t.f * t.a * t.b }

// formula is one operator's cost as at most three terms.
type formula struct {
	n int
	t [3]term
}

func (fm *formula) add(f *float64, a, b float64) { fm.t[fm.n] = term{f: f, a: a, b: b}; fm.n++ }

// cost sums the formula's terms in order.
func (fm formula) cost() (c float64) {
	for _, t := range fm.t[:fm.n] {
		c += t.cost()
	}
	return c
}

// terms states each operator's cost formula, the one place it is
// written, for pricing (OpCost) and fitting (Observe): Figure 6 for
// the transfers and the middleware algorithms, the generic formulas
// for the DBMS. in and out are the bytes the inputs carry and the
// operator produces, inCard the first input's cardinality. A DBMS
// selection is free (the paper's assumption), a projection forms its
// output at no cost, and a DBMS coalescing is not executable (see
// OpCost): none has a term.
func (f *Factors) terms(n *algebra.Node, loc algebra.Location, in, out, inCard float64) (fm formula) {
	mw := loc == algebra.LocMW
	sort, join := &f.SortD, &f.JoinD
	if mw {
		sort, join = &f.SortM, &f.JoinM
	}
	switch n.Op {
	case algebra.OpScan:
		fm.add(&f.ScanD, out, 1)
	case algebra.OpTM:
		fm.add(&f.TM, in, 1)
	case algebra.OpTD:
		fm.add(&f.TD, in, 1)
	case algebra.OpSelect:
		if mw {
			fm.add(&f.SelM, PredTerms(n.Pred), in)
		}
	case algebra.OpSort:
		fm.add(sort, in, log2(inCard))
	case algebra.OpJoin, algebra.OpTJoin:
		// Bytes moved: both inputs plus the output.
		fm.add(join, in+out, 1)
	case algebra.OpTAggr:
		if mw {
			// Figure 6: an internal second sort, then two linear terms.
			fm.add(&f.SortM, in, log2(inCard))
			fm.t[0].shared = true
			fm.add(&f.TAggrM1, in, 1)
			fm.add(&f.TAggrM2, out, 1)
		} else {
			fm.add(&f.TAggrD1, in, 1)
			fm.add(&f.TAggrD2, out, 1)
		}
	case algebra.OpDupElim:
		if mw {
			fm.add(&f.DupM, in, 1)
		} else {
			fm.add(sort, in, log2(inCard)) // a DBMS sort
		}
	case algebra.OpCoalesce:
		if mw {
			fm.add(&f.CoalM, in, 1)
		}
	}
	return fm
}

// PredTerms is the paper's f(P), the selection-condition weight of the
// cost formulas: the number of atomic terms the condition's AND/OR tree
// combines (1 for no condition).
func PredTerms(pred sqlast.Expr) float64 {
	if b, ok := pred.(sqlast.BinaryExpr); ok && (b.Op == sqlast.OpAnd || b.Op == sqlast.OpOr) {
		return PredTerms(b.Left) + PredTerms(b.Right)
	}
	return 1
}

func log2(card float64) float64 {
	if card < 2 {
		return 1
	}
	return math.Log2(card)
}
