// Package cost implements the middleware's Cost Estimator: the cost
// formulas of Figure 6 of the paper (plus the "generic" DBMS formulas
// for scan, sort, and join), the cost factors they weigh statistics
// with, Du et al.-style calibration that derives the factors from
// sample runs, and the adaptive feedback loop that refines the
// transfer factors from measured execution (the "adaptable" in the
// paper's title). All costs are in microseconds, the paper's unit.
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
// the factors.
type Model struct {
	F   Factors
	Est *stats.Estimator
}

// NewModel builds a model with default factors.
func NewModel(est *stats.Estimator) *Model {
	return &Model{F: DefaultFactors(), Est: est}
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
// from its output statistics and its inputs' (left, then right).
func (m *Model) OpCost(n *algebra.Node, loc algebra.Location, out *stats.RelStats, in ...*stats.RelStats) float64 {
	mw := loc == algebra.LocMW
	switch n.Op {
	case algebra.OpScan:
		return m.F.ScanD * out.Size()
	case algebra.OpTM:
		return m.F.TM * in[0].Size()
	case algebra.OpTD:
		return m.F.TD * in[0].Size()
	case algebra.OpSelect:
		if !mw {
			return 0 // the paper assumes zero-cost DBMS selection
		}
		return m.F.SelM * PredTerms(n.Pred) * in[0].Size()
	case algebra.OpSort:
		f := m.F.SortD
		if mw {
			f = m.F.SortM
		}
		return f * in[0].Size() * log2(in[0].Card)
	case algebra.OpJoin, algebra.OpTJoin:
		f := m.F.JoinD
		if mw {
			f = m.F.JoinM
		}
		return f * (in[0].Size() + in[1].Size() + out.Size())
	case algebra.OpTAggr:
		if mw {
			// Figure 6: internal second sort + linear terms.
			internalSort := m.F.SortM * in[0].Size() * log2(in[0].Card)
			return internalSort + m.F.TAggrM1*in[0].Size() + m.F.TAggrM2*out.Size()
		}
		return m.F.TAggrD1*in[0].Size() + m.F.TAggrD2*out.Size()
	case algebra.OpDupElim:
		if mw {
			return m.F.DupM * in[0].Size()
		}
		return m.F.SortD * in[0].Size() * log2(in[0].Card)
	case algebra.OpCoalesce:
		if !mw {
			// Coalescing has no SQL translation; a plan that leaves it
			// in the DBMS is not executable.
			return math.Inf(1)
		}
		return m.F.CoalM * in[0].Size()
	}
	return 0 // projection: zero output-forming cost
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
