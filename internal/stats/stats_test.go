package stats

import (
	"math/rand"
	"testing"
	"time"

	"tango/internal/meta"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

func day(y int, m time.Month, d int) float64 {
	return float64(types.DayOf(y, m, d))
}

// paperRelation reproduces the §3.3 worked example: 100,000 tuples,
// 7-day periods uniformly distributed over 1995-01-01 .. 2000-01-01.
func paperRelation() *RelStats {
	return &RelStats{
		Card:         100000,
		AvgTupleSize: 50,
		Cols: map[string]*meta.ColumnStats{
			"T1": {
				Name:     "T1",
				Min:      types.DateYMD(1995, time.January, 1),
				Max:      types.DateYMD(1999, time.December, 25),
				Distinct: 1819,
			},
			"T2": {
				Name:     "T2",
				Min:      types.DateYMD(1995, time.January, 8),
				Max:      types.DateYMD(2000, time.January, 1),
				Distinct: 1819,
			},
		},
	}
}

func overlapsPred(t *testing.T) sqlast.Expr {
	t.Helper()
	sel, err := sqlparser.ParseSelect(
		"SELECT 1 WHERE T1 < DATE '1997-02-08' AND T2 > DATE '1997-02-01'")
	if err != nil {
		t.Fatal(err)
	}
	return sel.Where
}

func TestPaperWorkedExample(t *testing.T) {
	in := paperRelation()
	pred := overlapsPred(t)

	naive := &Estimator{Mode: ModeNaive}
	nSel := naive.Selectivity(pred, in)
	// The paper: 42.3% × 58.5% ≈ 24.7% — "a factor of 40 too high".
	if nSel < 0.20 || nSel > 0.30 {
		t.Errorf("naive selectivity = %.3f, want ≈ 0.247", nSel)
	}

	semantic := &Estimator{Mode: ModeSemantic}
	sSel := semantic.Selectivity(pred, in)
	// The paper: ≈ 0.8% (actual is 0.4%–0.8%).
	if sSel < 0.003 || sSel > 0.012 {
		t.Errorf("semantic selectivity = %.4f, want ≈ 0.008", sSel)
	}
	if nSel/sSel < 20 {
		t.Errorf("semantic should be dramatically tighter: naive %.3f vs semantic %.4f", nSel, sSel)
	}
}

func TestSemanticMatchesActualOnSyntheticData(t *testing.T) {
	// Generate the actual relation from the worked example and compare
	// the estimate with the true count.
	rng := rand.New(rand.NewSource(99))
	lo := int64(day(1995, time.January, 1))
	hi := int64(day(1999, time.December, 25))
	a := int64(day(1997, time.February, 1))
	b := int64(day(1997, time.February, 8))
	actual := 0
	const n = 100000
	for i := 0; i < n; i++ {
		s := lo + rng.Int63n(hi-lo+1)
		e := s + 7
		if s < b && e > a {
			actual++
		}
	}
	est := &Estimator{Mode: ModeSemantic}
	sel := est.Selectivity(overlapsPred(t), paperRelation())
	predicted := sel * n
	if predicted < float64(actual)*0.5 || predicted > float64(actual)*2 {
		t.Errorf("semantic estimate %0.f vs actual %d (should be within 2x)", predicted, actual)
	}
	naive := &Estimator{Mode: ModeNaive}
	nPred := naive.Selectivity(overlapsPred(t), paperRelation()) * n
	if nPred < float64(actual)*10 {
		t.Errorf("naive estimate %.0f should be far above actual %d", nPred, actual)
	}
}

func TestTimeslicePattern(t *testing.T) {
	// T1 <= A AND T2 > A: contains point A.
	sel, err := sqlparser.ParseSelect(
		"SELECT 1 WHERE T1 <= DATE '1997-02-01' AND T2 > DATE '1997-02-01'")
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Mode: ModeSemantic}
	s := est.Selectivity(sel.Where, paperRelation())
	// About 383 of 100000 ≈ 0.4%.
	if s < 0.001 || s > 0.01 {
		t.Errorf("timeslice selectivity = %.4f, want ≈ 0.004", s)
	}
}

func TestSimpleSelectivities(t *testing.T) {
	in := &RelStats{
		Card: 1000,
		Cols: map[string]*meta.ColumnStats{
			"PAY": {Name: "Pay", Min: types.Int(0), Max: types.Int(100), Distinct: 100},
		},
	}
	est := &Estimator{Mode: ModeSemantic}
	cases := map[string][2]float64{
		"Pay = 50":              {0.009, 0.011},
		"Pay < 50":              {0.45, 0.55},
		"Pay > 90":              {0.05, 0.12},
		"Pay >= 90":             {0.05, 0.13},
		"Pay BETWEEN 20 AND 39": {0.15, 0.25},
		"Pay <> 50":             {0.98, 1.0},
		"Pay < 25 OR Pay > 75":  {0.4, 0.55},
	}
	for src, want := range cases {
		sel, err := sqlparser.ParseSelect("SELECT 1 WHERE " + src)
		if err != nil {
			t.Fatal(err)
		}
		got := est.Selectivity(sel.Where, in)
		if got < want[0] || got > want[1] {
			t.Errorf("%q: selectivity = %.3f, want in [%.3f, %.3f]", src, got, want[0], want[1])
		}
	}
}

func TestHistogramSharpensSkewedEstimate(t *testing.T) {
	// 90% of T1 values cluster late (like UIS POSITION: most periods
	// start after 1992). The uniform assumption misestimates a cutoff
	// selection; a histogram fixes it.
	rng := rand.New(rand.NewSource(7))
	var t1vals []types.Value
	for i := 0; i < 9000; i++ {
		t1vals = append(t1vals, types.Int(8000+rng.Int63n(3000))) // late
	}
	for i := 0; i < 1000; i++ {
		t1vals = append(t1vals, types.Int(rng.Int63n(8000))) // early
	}
	hist := meta.BuildHistogram(t1vals, 20)
	cutoff := 8000.0
	actual := 0.1 // 10% start before 8000

	csNoHist := &meta.ColumnStats{Name: "T1", Min: types.Int(0), Max: types.Int(11000), Distinct: 5000}
	uniformEst := csNoHist.FractionBelow(cutoff)
	csHist := &meta.ColumnStats{Name: "T1", Min: types.Int(0), Max: types.Int(11000), Distinct: 5000, Histogram: hist}
	histEst := csHist.FractionBelow(cutoff)

	if histErr, uniErr := abs(histEst-actual), abs(uniformEst-actual); histErr > uniErr/3 {
		t.Errorf("histogram estimate %.3f should beat uniform %.3f (actual %.3f)",
			histEst, uniformEst, actual)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTAggrCardinalityBounds(t *testing.T) {
	in := &RelStats{
		Card: 1000,
		Cols: map[string]*meta.ColumnStats{
			"G":  {Name: "G", Distinct: 10},
			"T1": {Name: "T1", Distinct: 300},
			"T2": {Name: "T2", Distinct: 300},
		},
	}
	est := TAggrCardinality(in, []string{"G"})
	// Per-group 100 tuples → ≤199 intervals ×10 groups = 1990 max;
	// estimate is 60% of that = 1194.
	if est < 500 || est > 1990 {
		t.Errorf("TAggr estimate = %.0f, want in (500, 1990)", est)
	}
	// Bound: never above 2·card−1.
	if est > 2*in.Card-1 {
		t.Errorf("estimate exceeds hard bound")
	}
	// No grouping: bounded by distinct(T1)+distinct(T2)+1.
	est2 := TAggrCardinality(in, nil)
	if est2 > 601 {
		t.Errorf("ungrouped estimate %.0f exceeds point bound 601", est2)
	}
	// Degenerate.
	if TAggrCardinality(&RelStats{Card: 0}, nil) != 0 {
		t.Error("empty input should estimate 0")
	}
}

func TestEstimatorModesDifferOnlyOnTemporalPairs(t *testing.T) {
	in := paperRelation()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE T1 < DATE '1997-06-01'")
	if err != nil {
		t.Fatal(err)
	}
	naive := (&Estimator{Mode: ModeNaive}).Selectivity(sel.Where, in)
	semantic := (&Estimator{Mode: ModeSemantic}).Selectivity(sel.Where, in)
	if abs(naive-semantic) > 1e-9 {
		t.Errorf("single temporal predicate should estimate identically: %v vs %v", naive, semantic)
	}
}
