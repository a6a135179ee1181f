package cost

import (
	"tango/internal/algebra"
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

// Observe refines the factor(s) of one algorithm from a measured
// execution and reports whether any moved. A transfer (T^M, T^D) takes
// an EWMA step toward its observed µs per byte: f' = α·obs + (1 − α)·f.
// A middleware operator's prediction is re-priced with the observed
// sizes (so the update corrects the factor, not the cardinality
// estimate), and each of its factors moves by f' = f·(1 + α·(ratio − 1)),
// the observed/predicted ratio clamped to [0.1, 10]. DBMS-resident
// operators are skipped: the middleware sees their cost only mixed into
// transfer time.
func (f *Factors) Observe(o ObservedOp) bool {
	n := o.Node
	if o.Micros <= 0 {
		return false
	}
	switch n.Op {
	case algebra.OpTM, algebra.OpTD:
		if o.InBytes <= 0 {
			return false
		}
		t := &f.TM
		if n.Op == algebra.OpTD {
			t = &f.TD
		}
		*t = adaptRate*(o.Micros/o.InBytes) + (1-adaptRate)*(*t)
		return true
	}
	if n.Loc() != algebra.LocMW {
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
		k := 1 + adaptRate*(ratio-1)
		for _, t := range targets {
			*t *= k
		}
		return true
	}
	switch n.Op {
	case algebra.OpSelect:
		terms := 1.0
		if n.Pred != nil {
			terms = PredTerms(n.Pred)
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
