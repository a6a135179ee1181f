package cost

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"tango/internal/algebra"
)

var (
	mwInput = algebra.TM(algebra.Scan("R", "")) // a middleware-resident input
	dbInput = algebra.Scan("R", "")
	keysA   = []string{"A"}
)

// timed is an observation of n whose time is its formula's cost at
// factors f.
func timed(f Factors, n *algebra.Node, in, out, card float64) ObservedOp {
	return ObservedOp{Node: n, InBytes: in, OutBytes: out, InCard: card, Micros: f.terms(n, n.Loc(), in, out, card).cost()}
}

// eachFactor calls fn with every factor's name and value.
func eachFactor(f Factors, fn func(name string, v float64)) {
	v := reflect.ValueOf(f)
	for i := 0; i < v.NumField(); i++ {
		fn(v.Type().Field(i).Name, v.Field(i).Float())
	}
}

// observeCase is a sequence of observations fed through Model.Observe
// from DefaultFactors, and a check of the factors and windows it
// leaves.
type observeCase struct {
	name  string
	obs   []ObservedOp
	check func(*testing.T, *Model)
}

// checkObserve runs each case, then replays its observations on a
// fresh model, which must reach bit-identical factors.
func checkObserve(t *testing.T, cases []observeCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, replay := NewModel(nil), NewModel(nil)
			for _, o := range c.obs {
				m.Observe(o)
			}
			c.check(t, m)
			for _, o := range c.obs {
				replay.Observe(o)
			}
			if m.F != replay.F {
				t.Errorf("replay reached %+v, not %+v", replay.F, m.F)
			}
		})
	}
}

// moves checks that only the factors fn sets left their priors, to
// within 1e-12 of the values it sets.
func moves(fn func(*Factors)) func(*testing.T, *Model) {
	return func(t *testing.T, m *Model) {
		t.Helper()
		want := DefaultFactors()
		fn(&want)
		near(t, m.F, want, 1e-12)
	}
}

// near checks that every factor of got is within tol relative of
// want's.
func near(t *testing.T, got, want Factors, tol float64) {
	t.Helper()
	g := reflect.ValueOf(got)
	eachFactor(want, func(name string, w float64) {
		if x := g.FieldByName(name).Float(); math.Abs(x-w) > tol*w {
			t.Errorf("%s = %v, want %v", name, x, w)
		}
	})
}

// none checks that nothing moved and no window took a row.
func none(t *testing.T, m *Model) {
	if m.F != DefaultFactors() || len(m.windows) != 0 {
		t.Errorf("factors %+v, %d windows; want the priors and none", m.F, len(m.windows))
	}
}

// TestFitRecoversFactors: samples timed through the term list at
// known factors fit back to those factors, every one the calibrator
// fits — in calibration order, as TAGGR^M's rows deduct SortM.
func TestFitRecoversFactors(t *testing.T) {
	d := DefaultFactors()
	known := Factors{TM: 0.071, TD: 0.053, SelM: 0.0013, TAggrM1: 0.0041, TAggrM2: 0.0067, TAggrD1: 0.21, TAggrD2: 0.37,
		SortM: 0.0011, SortD: 0.0017, JoinM: 0.0023, JoinD: 0.0097, ScanD: 0.0043, DupM: d.DupM, CoalM: d.CoalM}
	keys := []string{"G"}
	checkObserve(t, []observeCase{{"twelve samples", []ObservedOp{
		timed(known, algebra.TD(mwInput), 21015, 0, 0),
		timed(known, mwInput, 21062, 0, 0),
		timed(known, dbInput, 0, 96000, 0),
		timed(known, algebra.Sort(dbInput, keys...), 96000, 96000, 3000),
		timed(known, algebra.Join(dbInput, dbInput, keys, keys), 192000, 77088, 3000),
		timed(known, algebra.Sort(mwInput, keys...), 96000, 96000, 3000),
		timed(known, algebra.Select(mwInput, mustPredExpr(t, "V < 500")), 96000, 47808, 3000),
		timed(known, algebra.Join(mwInput, mwInput, keys, keys), 192000, 1.17e7, 6000),
		timed(known, algebra.TAggr(mwInput, keys), 96000, 182176, 3000),
		timed(known, algebra.TAggr(mwInput, keys), 48000, 40000, 1500),
		timed(known, algebra.TAggr(dbInput, keys), 16000, 31712, 500),
		timed(known, algebra.TAggr(dbInput, keys), 8000, 16000, 250),
	}, func(t *testing.T, m *Model) { near(t, m.F, known, 1e-9) }}})
}

// TestAdapt: a transfer's factor is the least-squares fit Σxy / Σx²
// of its window's bytes x and times y; window + 1 rows evict the
// oldest.
func TestAdapt(t *testing.T) {
	tm := algebra.TM(dbInput)
	evict := []ObservedOp{{Node: tm, InBytes: 1000, Micros: 1000}} // 1 µs/B, then windowLen at 0.5
	for range windowLen {
		evict = append(evict, ObservedOp{Node: tm, InBytes: 1000, Micros: 500})
	}
	checkObserve(t, []observeCase{
		{"TM, far off", []ObservedOp{{Node: tm, InBytes: 3, Micros: 7e6}}, moves(func(f *Factors) { f.TM = 7e6 / 3 })},
		{"TM, Σxy / Σx²", []ObservedOp{{Node: tm, InBytes: 1000, Micros: 1000}, {Node: tm, InBytes: 3000, Micros: 9000}},
			moves(func(f *Factors) { f.TM = (1000*1000 + 3000*9000) / (1000*1000 + 3000*3000.0) })},
		{"TD", []ObservedOp{{Node: algebra.TD(mwInput), InBytes: 7000, Micros: 900}}, moves(func(f *Factors) { f.TD = 900.0 / 7000 })},
		{"window + 1 rows evict the oldest", evict, func(t *testing.T, m *Model) {
			moves(func(f *Factors) { f.TM = 0.5 })(t, m)
			if n := m.Samples(tm); n != windowLen {
				t.Errorf("T^M window holds %d rows, want %d", n, windowLen)
			}
		}},
		{"a full window keeps its oldest", evict[:windowLen], func(t *testing.T, m *Model) {
			if m.F.TM <= 0.5 {
				t.Errorf("TM = %v with the 1 µs/B row still held, want > 0.5", m.F.TM)
			}
		}},
	})
}

// TestAdaptOpMovesTowardObservation: a middleware operator's own
// factors fit its time less its shared terms. TAGGR's two factors,
// from one shape, scale together by one k.
func TestAdaptOpMovesTowardObservation(t *testing.T) {
	d := DefaultFactors()
	const in, out, card = 100000.0, 150000.0, 2000.0
	sortShare := d.SortM * in * log2(card)
	half := Factors{TAggrD1: d.TAggrD1 / 2, TAggrD2: d.TAggrD2 / 2}
	taggrD := algebra.TAggr(dbInput, keysA)
	checkObserve(t, []observeCase{
		{"TAggr^M, slow, sort share deducted", []ObservedOp{{Node: algebra.TAggr(mwInput, keysA), InBytes: in, OutBytes: out, InCard: card,
			Micros: sortShare + 3*(d.TAggrM1*in+d.TAggrM2*out)}},
			moves(func(f *Factors) { f.TAggrM1, f.TAggrM2 = 3*f.TAggrM1, 3*f.TAggrM2 })},
		{"TAggr^D, one shape twice", []ObservedOp{timed(half, taggrD, 8000, 4000, 100), timed(half, taggrD, 16000, 8000, 200)},
			moves(func(f *Factors) { f.TAggrD1, f.TAggrD2 = f.TAggrD1/2, f.TAggrD2/2 })},
		{"DupElim", []ObservedOp{{Node: algebra.DupElim(mwInput), InBytes: 1000, Micros: 4 * d.DupM * 1000}},
			moves(func(f *Factors) { f.DupM *= 4 })},
		{"Coalesce", []ObservedOp{{Node: algebra.Coalesce(mwInput), InBytes: 1000, Micros: d.CoalM * 1000 / 4}},
			moves(func(f *Factors) { f.CoalM /= 4 })},
	})
}

// TestAdaptOpTJoin: JOIN^M and TJOIN^M fit JoinM in one window, over
// their input plus output bytes; SORT^D and DUPELIM^D share SortD.
func TestAdaptOpTJoin(t *testing.T) {
	join := algebra.Join(mwInput, mwInput, keysA, keysA)
	checkObserve(t, []observeCase{
		{"Join, TJoin", []ObservedOp{{Node: join, InBytes: 200000, OutBytes: 50000, Micros: 500},
			{Node: algebra.TJoin(mwInput, mwInput, keysA, keysA), InBytes: 200000, OutBytes: 50000, Micros: 1500}},
			func(t *testing.T, m *Model) {
				moves(func(f *Factors) { f.JoinM = 1000.0 / 250000 })(t, m)
				if n := m.Samples(join); n != 2 {
					t.Errorf("JOIN^M window holds %d rows, want 2", n)
				}
			}},
		{"DBMS DupElim, Sort", []ObservedOp{{Node: algebra.DupElim(dbInput), InBytes: 1000, InCard: 16, Micros: 8},
			{Node: algebra.Sort(dbInput, keysA...), InBytes: 1000, InCard: 16, Micros: 16}},
			func(t *testing.T, m *Model) {
				moves(func(f *Factors) { f.SortD = 12.0 / 4000 })(t, m)
				if n := m.Samples(algebra.DupElim(dbInput)); n != 2 {
					t.Errorf("SORT^D window holds %d rows, want 2", n)
				}
			}},
	})
}

// TestAdaptOpSkips: an execution with no time, no volume, no time left
// after its shared terms, or no own term is not a row and moves
// nothing.
func TestAdaptOpSkips(t *testing.T) {
	d := DefaultFactors()
	tm, one := algebra.TM(dbInput), mustPredExpr(t, "A = 1")
	checkObserve(t, []observeCase{
		{"no time", []ObservedOp{{Node: tm, InBytes: 1000}, {Node: tm, InBytes: 1000, Micros: -5}, {Node: tm, InBytes: 1000, Micros: math.NaN()}}, none},
		{"no volume", []ObservedOp{{Node: algebra.TD(mwInput), Micros: 5}, {Node: algebra.Select(mwInput, one), Micros: 5}}, none},
		{"negative residual", []ObservedOp{{Node: algebra.TAggr(mwInput, keysA), InBytes: 100000, OutBytes: 150000, InCard: 2000,
			Micros: d.SortM * 100000 * log2(2000) / 2}}, none},
		{"no own term", []ObservedOp{{Node: algebra.Select(dbInput, one), InBytes: 1000, Micros: 5},
			{Node: algebra.ProjectCols(mwInput, "A"), InBytes: 1000, Micros: 5}}, none},
	})
}

// TestAdaptOpSelectUsesPredTerms: a selection's statistic is weighed
// by the f(P) of the node's predicate, as in the cost formula.
func TestAdaptOpSelectUsesPredTerms(t *testing.T) {
	d := DefaultFactors()
	one, three := mustPredExpr(t, "A = 1"), mustPredExpr(t, "A = 1 AND B = 2 AND C = 3")
	checkObserve(t, []observeCase{
		{"f(P) = 3, as predicted", []ObservedOp{{Node: algebra.Select(mwInput, three), InBytes: 10000, Micros: d.SelM * 3 * 10000}},
			moves(func(*Factors) {})},
		{"f(P) = 1, 3x slow", []ObservedOp{{Node: algebra.Select(mwInput, one), InBytes: 10000, Micros: d.SelM * 3 * 10000}},
			moves(func(f *Factors) { f.SelM *= 3 })},
	})
}

// TestObserveAllocatesNothingWarm: once a formula has its window,
// Observe reuses it, on the one-factor and the two-factor path.
func TestObserveAllocatesNothingWarm(t *testing.T) {
	m := NewModel(nil)
	obs := []ObservedOp{{Node: algebra.TM(dbInput), InBytes: 1000, Micros: 20},
		{Node: algebra.TAggr(mwInput, keysA), InBytes: 100000, OutBytes: 150000, InCard: 2000, Micros: 9000}}
	observe := func() {
		for _, o := range obs {
			m.Observe(o)
		}
	}
	observe()
	if n := testing.AllocsPerRun(100, observe); n != 0 {
		t.Errorf("a warm Observe allocated %v times a round", n)
	}
}

// FuzzObserve feeds any sequence of observations through Model.Observe:
// each 33 bytes pick a plan node and give its input bytes, output
// bytes, input cardinality and time as float64s, so zero, negative,
// NaN and ±Inf times and volumes all arrive. Every factor must stay
// finite and positive.
func FuzzObserve(f *testing.F) {
	nodes := []*algebra.Node{
		algebra.TM(dbInput), algebra.TD(mwInput), dbInput,
		algebra.Sort(dbInput, keysA...), algebra.Sort(mwInput, keysA...),
		algebra.Join(dbInput, dbInput, keysA, keysA), algebra.Join(mwInput, mwInput, keysA, keysA),
		algebra.TJoin(mwInput, mwInput, keysA, keysA),
		algebra.Select(mwInput, nil), algebra.Select(dbInput, nil),
		algebra.TAggr(mwInput, keysA), algebra.TAggr(dbInput, keysA),
		algebra.DupElim(mwInput), algebra.DupElim(dbInput),
		algebra.Coalesce(mwInput), algebra.ProjectCols(mwInput, "A"),
	}
	const rec = 33
	enc := func(obs ...[5]float64) []byte {
		var b []byte
		for _, o := range obs {
			b = append(b, byte(o[0]))
			for _, v := range o[1:] {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
		return b
	}
	inf, nan := math.Inf(1), math.NaN()
	f.Add(enc([5]float64{0, 1000, 0, 0, 20}, [5]float64{0, 1000, 0, 0, 0}, [5]float64{1, 0, 0, 0, 5}))
	f.Add(enc([5]float64{10, 1e5, 1.5e5, 2000, 1}, [5]float64{10, 1e5, 1.5e5, 2000, -1}, [5]float64{11, 8000, 0, 100, nan}))
	f.Add(enc([5]float64{3, 1000, 1000, 100, inf}, [5]float64{5, inf, 0, 10, 1}, [5]float64{6, 1e300, 1e300, 1, 1e-300}, [5]float64{2, 0, nan, 0, -inf}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewModel(nil)
		for ; len(data) >= rec; data = data[rec:] {
			var v [4]float64
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
			}
			m.Observe(ObservedOp{Node: nodes[int(data[0])%len(nodes)], InBytes: v[0], OutBytes: v[1], InCard: v[2], Micros: v[3]})
			eachFactor(m.F, func(name string, x float64) {
				if !finitePos(x) {
					t.Fatalf("%s = %v", name, x)
				}
			})
		}
	})
}
