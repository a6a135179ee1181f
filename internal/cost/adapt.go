package cost

import (
	"tango/internal/algebra"
)

// ObservedOp is one middleware operator's measured execution profile,
// as collected by the telemetry-instrumented iterators: observed input
// and output volumes plus the operator's own (self) wall time. It is
// the per-operator analogue of client.Feedback, and drives the §7
// feedback loop at algorithm granularity instead of only at transfer
// granularity.
type ObservedOp struct {
	Op  algebra.Op
	Loc algebra.Location
	// InBytes/InCard are the volumes produced by the operator's direct
	// inputs; OutBytes/OutCard are what the operator itself produced.
	InBytes  float64
	OutBytes float64
	InCard   float64
	OutCard  float64
	// PredTerms is f(P) for selections (number of atomic predicate
	// terms); values < 1 are treated as 1.
	PredTerms float64
	// Micros is the operator's measured self time in microseconds.
	Micros float64
}

// AdaptOp refines the cost factor(s) of one middleware algorithm from
// a measured execution. The prediction is re-priced with the observed
// sizes (so the update corrects the factor, not the cardinality
// estimate), the observed/predicted ratio is clamped to [0.1, 10], and
// each involved factor moves by an EWMA step of rate alpha:
//
//	f' = f · (1 + α·(ratio − 1))
//
// Transfers (T^M, T^D) are excluded — Factors.Adapt already updates
// them from whole-transfer feedback — as are DBMS-resident operators,
// whose cost the middleware can only observe mixed into transfer time.
// It reports whether any factor was updated.
func (f *Factors) AdaptOp(o ObservedOp, alpha float64) bool {
	if alpha <= 0 || o.Micros <= 0 || o.Loc != algebra.LocMW {
		return false
	}
	scale := func(observed, predicted float64, targets ...*float64) bool {
		if predicted <= 0 || observed <= 0 {
			return false
		}
		ratio := observed / predicted
		if ratio < 0.1 {
			ratio = 0.1
		} else if ratio > 10 {
			ratio = 10
		}
		k := 1 + alpha*(ratio-1)
		for _, t := range targets {
			*t *= k
		}
		return true
	}
	switch o.Op {
	case algebra.OpSelect:
		terms := o.PredTerms
		if terms < 1 {
			terms = 1
		}
		return scale(o.Micros, f.SelM*terms*o.InBytes, &f.SelM)

	case algebra.OpSort:
		return scale(o.Micros, f.SortM*o.InBytes*log2(o.InCard), &f.SortM)

	case algebra.OpJoin, algebra.OpTJoin:
		// The formula weighs bytes moved: both inputs plus the output.
		return scale(o.Micros, f.JoinM*(o.InBytes+o.OutBytes), &f.JoinM)

	case algebra.OpTAggr:
		// Figure 6 prices TAGGR^M as an internal sort (SortM) plus two
		// linear terms. Deduct the sort share from the measurement and
		// fit p_taggm1/p_taggm2 against the residual.
		resid := o.Micros - f.SortM*o.InBytes*log2(o.InCard)
		if resid <= 0 {
			resid = o.Micros / 10
		}
		return scale(resid, f.TAggrM1*o.InBytes+f.TAggrM2*o.OutBytes, &f.TAggrM1, &f.TAggrM2)

	case algebra.OpDupElim:
		return scale(o.Micros, f.DupM*o.InBytes, &f.DupM)

	case algebra.OpCoalesce:
		return scale(o.Micros, f.CoalM*o.InBytes, &f.CoalM)
	}
	return false
}
