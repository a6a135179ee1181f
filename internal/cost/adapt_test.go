package cost

import (
	"math"
	"reflect"
	"testing"

	"tango/internal/algebra"
)

// observeCase is one Observe call from DefaultFactors and the factor
// moves it must make.
type observeCase struct {
	name  string
	obs   ObservedOp
	want  func(*Factors) // the moves expected from DefaultFactors; nil: none
	exact bool           // compare with ==, not to 1e-12
}

// checkObserve runs each case from fresh DefaultFactors and compares
// the factors, and Observe's report, with the expected moves.
func checkObserve(t *testing.T, cases []observeCase) {
	t.Helper()
	for _, c := range cases {
		want := DefaultFactors()
		if c.want != nil {
			c.want(&want)
		}
		f := DefaultFactors()
		moved := f.Observe(c.obs)
		if moved != (c.want != nil) {
			t.Errorf("%s: Observe reported %v, want %v", c.name, moved, c.want != nil)
		}
		if c.exact && f != want || !near(f, want) {
			t.Errorf("%s: factors\n %+v, want\n %+v", c.name, f, want)
		}
	}
}

var (
	mwInput = algebra.TM(algebra.Scan("R", "")) // a middleware-resident input
	dbInput = algebra.Scan("R", "")
	keysA   = []string{"A"}
)

// TestAdapt: a transfer takes an unclamped EWMA step of rate 0.2
// toward its observed µs per byte; one with no time or no bytes moves
// nothing.
func TestAdapt(t *testing.T) {
	ewma := func(f *float64, obs float64) { *f = 0.2*obs + 0.8*(*f) }
	checkObserve(t, []observeCase{
		{"TM", ObservedOp{Node: algebra.TM(dbInput), InBytes: 1000, Micros: 10000},
			func(f *Factors) { ewma(&f.TM, 10000.0/1000) }, true},
		{"TM far off, unclamped", ObservedOp{Node: algebra.TM(dbInput), InBytes: 3, Micros: 7e6},
			func(f *Factors) { ewma(&f.TM, 7e6/3) }, true},
		{"TD", ObservedOp{Node: algebra.TD(mwInput), InBytes: 7000, Micros: 900},
			func(f *Factors) { ewma(&f.TD, 900.0/7000) }, true},
		{"TM, no time", ObservedOp{Node: algebra.TM(dbInput), InBytes: 1000}, nil, true},
		{"TD, no bytes", ObservedOp{Node: algebra.TD(mwInput), Micros: 5}, nil, true},
	})
}

// TestAdaptOpMovesTowardObservation: a middleware operator's factors
// move by 1 + 0.2·(ratio − 1) of observed to predicted time, up when
// slow and down when fast, and no other factor moves. TAGGR^M's
// prediction leaves out its internal sort's share.
func TestAdaptOpMovesTowardObservation(t *testing.T) {
	d := DefaultFactors()
	const in, out, card = 100000.0, 150000.0, 2000.0
	sortShare := d.SortM * in * log2(card)
	checkObserve(t, []observeCase{
		{"TAggr, slow, sort share deducted", ObservedOp{Node: algebra.TAggr(mwInput, keysA), InBytes: in, OutBytes: out, InCard: card,
			Micros: sortShare + 2*(d.TAggrM1*in+d.TAggrM2*out)},
			func(f *Factors) { f.TAggrM1, f.TAggrM2 = f.TAggrM1*1.2, f.TAggrM2*1.2 }, false},
		{"TAggr, fast", ObservedOp{Node: algebra.TAggr(mwInput, keysA), InBytes: in, OutBytes: out, InCard: card,
			Micros: sortShare + (d.TAggrM1*in+d.TAggrM2*out)/2},
			func(f *Factors) { f.TAggrM1, f.TAggrM2 = f.TAggrM1*0.9, f.TAggrM2*0.9 }, false},
		{"DupElim", ObservedOp{Node: algebra.DupElim(mwInput), InBytes: 1000, Micros: 4 * d.DupM * 1000},
			func(f *Factors) { f.DupM *= 1.6 }, false},
		{"Coalesce", ObservedOp{Node: algebra.Coalesce(mwInput), InBytes: 1000, Micros: 4 * d.CoalM * 1000},
			func(f *Factors) { f.CoalM *= 1.6 }, false},
	})
}

// TestAdaptOpTJoin: JOIN^M and TJOIN^M share JoinM, predicted over
// their input plus output bytes.
func TestAdaptOpTJoin(t *testing.T) {
	d := DefaultFactors()
	checkObserve(t, []observeCase{
		{"Join", ObservedOp{Node: algebra.Join(mwInput, mwInput, keysA, keysA), InBytes: 200000, OutBytes: 50000, Micros: 2 * d.JoinM * 250000},
			func(f *Factors) { f.JoinM *= 1.2 }, false},
		{"TJoin", ObservedOp{Node: algebra.TJoin(mwInput, mwInput, keysA, keysA), InBytes: 200000, OutBytes: 50000, Micros: d.JoinM * 250000 / 2},
			func(f *Factors) { f.JoinM *= 0.9 }, false},
	})
}

// TestAdaptOpClampsRatio: a wildly off measurement moves a factor as
// if it were 10× or 0.1× the prediction, no further.
func TestAdaptOpClampsRatio(t *testing.T) {
	d := DefaultFactors()
	checkObserve(t, []observeCase{
		{"Sort, clamped at 10", ObservedOp{Node: algebra.Sort(mwInput, keysA...), InBytes: 1000, InCard: 100, Micros: d.SortM * 1000 * log2(100) * 1e6},
			func(f *Factors) { f.SortM *= 2.8 }, false},
		{"Sort, clamped at 0.1", ObservedOp{Node: algebra.Sort(mwInput, keysA...), InBytes: 1000, InCard: 100, Micros: d.SortM * 1000 * log2(100) * 1e-6},
			func(f *Factors) { f.SortM *= 0.82 }, false},
	})
}

// TestAdaptOpSkips: DBMS-resident operators, scans, projections and
// executions with no time or no volume move nothing.
func TestAdaptOpSkips(t *testing.T) {
	one := mustPredExpr(t, "A = 1")
	checkObserve(t, []observeCase{
		{"DBMS Sort", ObservedOp{Node: algebra.Sort(dbInput, keysA...), InBytes: 1000, InCard: 100, Micros: 5}, nil, true},
		{"DBMS Select", ObservedOp{Node: algebra.Select(dbInput, one), InBytes: 1000, Micros: 5}, nil, true},
		{"Scan", ObservedOp{Node: dbInput, InBytes: 1000, Micros: 5}, nil, true},
		{"Project", ObservedOp{Node: algebra.ProjectCols(mwInput, "A"), InBytes: 1000, Micros: 5}, nil, true},
		{"Sort, no time", ObservedOp{Node: algebra.Sort(mwInput, keysA...), InBytes: 1000, InCard: 100}, nil, true},
		{"Select, no volume", ObservedOp{Node: algebra.Select(mwInput, one), Micros: 5}, nil, true},
	})
}

// TestAdaptOpSelectUsesPredTerms: a selection's prediction is weighed
// by the f(P) of the node's predicate, as in the cost formula.
func TestAdaptOpSelectUsesPredTerms(t *testing.T) {
	d := DefaultFactors()
	one, three := mustPredExpr(t, "A = 1"), mustPredExpr(t, "A = 1 AND B = 2 AND C = 3")
	checkObserve(t, []observeCase{
		{"Select, f(P) = 3, as predicted", ObservedOp{Node: algebra.Select(mwInput, three), InBytes: 10000, Micros: d.SelM * 3 * 10000},
			func(*Factors) {}, false},
		{"Select, f(P) = 1, 3x slow", ObservedOp{Node: algebra.Select(mwInput, one), InBytes: 10000, Micros: d.SelM * 3 * 10000},
			func(f *Factors) { f.SelM *= 1.4 }, false},
	})
}

// near reports whether every factor of a is within 1e-12 relative of
// b's.
func near(a, b Factors) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		x, y := va.Field(i).Float(), vb.Field(i).Float()
		if math.Abs(x-y) > 1e-12*math.Abs(y) {
			return false
		}
	}
	return true
}
