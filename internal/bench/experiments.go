package bench

import (
	"fmt"
	"math/rand"
	"time"

	"tango/internal/algebra"
	"tango/internal/meta"
	"tango/internal/stats"
	"tango/internal/types"
	"tango/internal/uis"
	"tango/internal/wire"
)

// Scale configures how large the sweeps run. Scale 1.0 reproduces the
// paper's full sizes (slow: the DBMS temporal aggregation is
// intentionally superlinear); the default experiments run at a reduced
// scale that preserves every shape.
type Scale struct {
	// PositionSizes are the POSITION cardinalities swept in Q1/Q4.
	PositionSizes []int
	// Q2MaxPosition / Q3Position / Q4Employee size the fixed relations.
	Q2Position int
	Q3Position int
	Q4Employee int
	// Latency models the middleware–DBMS link.
	Latency wire.Latency
	// Calibrate is the calibration sample size (0 = defaults factors).
	Calibrate int
	// Histograms is the ANALYZE bucket count.
	Histograms int
}

// PaperScale is the full published experiment (sizes from §5.1).
func PaperScale() Scale {
	sizes := append(append([]int{}, uis.SubsetSizes...), uis.PositionRows)
	return Scale{
		PositionSizes: sizes,
		Q2Position:    uis.PositionRows,
		Q3Position:    uis.PositionRows,
		Q4Employee:    uis.EmployeeRows,
		Latency:       wire.Latency{RoundTrip: 500 * time.Microsecond, BytesPerSecond: 40e6},
		Calibrate:     20000,
		Histograms:    20,
	}
}

// QuickScale is a ~10x reduced sweep for CI and benchmarks. The
// latency model approximates a fast LAN so that transfer costs remain
// visible (plans 4/5 of Query 2 are only distinguishable when moving a
// relation across the boundary is not free).
func QuickScale() Scale {
	return Scale{
		PositionSizes: []int{800, 1700, 2700, 3600, 4600, 5500, 6400, 7400, 8400},
		Q2Position:    8400,
		Q3Position:    8400,
		Q4Employee:    5000,
		Latency:       wire.Latency{RoundTrip: 200 * time.Microsecond, BytesPerSecond: 20e6},
		Calibrate:     0,
		Histograms:    20,
	}
}

// Series is one experiment's output: rows of (x, plan, seconds).
type Series struct {
	Name    string
	XLabel  string
	Results []Measurement
}

// Print renders the series as the paper-style table.
func (s *Series) Print() {
	fmt.Printf("## %s\n", s.Name)
	// Collect plans and xs preserving order.
	var plans, xs []string
	seenP, seenX := map[string]bool{}, map[string]bool{}
	cell := map[string]Measurement{}
	for _, m := range s.Results {
		if !seenP[m.Plan] {
			seenP[m.Plan] = true
			plans = append(plans, m.Plan)
		}
		if !seenX[m.Param] {
			seenX[m.Param] = true
			xs = append(xs, m.Param)
		}
		cell[m.Param+"\x00"+m.Plan] = m
	}
	fmt.Printf("%-14s", s.XLabel)
	for _, p := range plans {
		fmt.Printf(" %20s", p)
	}
	fmt.Println()
	for _, x := range xs {
		fmt.Printf("%-14s", x)
		for _, p := range plans {
			m, ok := cell[x+"\x00"+p]
			switch {
			case !ok:
				fmt.Printf(" %20s", "-")
			case m.Err != nil:
				fmt.Printf(" %20s", "ERR")
			default:
				fmt.Printf(" %19.3fs", m.Seconds())
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

// RunQ1 regenerates Figure 8: the three Query 1 plans over the
// POSITION size sweep.
func RunQ1(sc Scale) (*Series, error) {
	s := &Series{Name: "Query 1 (Figure 8): temporal aggregation", XLabel: "|POSITION|"}
	for _, size := range sc.PositionSizes {
		sys, err := NewSystem(Config{
			PositionRows: size, EmployeeRows: 100,
			Latency: sc.Latency, Histograms: sc.Histograms, Calibrate: sc.Calibrate,
		})
		if err != nil {
			return nil, err
		}
		for _, np := range Q1Plans() {
			s.Results = append(s.Results, sys.Measure("Q1", fmt.Sprint(size), np))
		}
	}
	return s, nil
}

// RunQ2 regenerates Figure 10: the six Query 2 plans while the
// selection period end sweeps 1984..1998.
func RunQ2(sc Scale, years []int) (*Series, error) {
	if len(years) == 0 {
		for y := 1984; y <= 1998; y += 2 {
			years = append(years, y)
		}
	}
	s := &Series{Name: "Query 2 (Figure 10): selection + TAggr + TJoin", XLabel: "period end"}
	sys, err := NewSystem(Config{
		PositionRows: sc.Q2Position, EmployeeRows: 100,
		Latency: sc.Latency, Histograms: sc.Histograms, Calibrate: sc.Calibrate,
	})
	if err != nil {
		return nil, err
	}
	for _, y := range years {
		end := Day(y, time.January, 1)
		for _, np := range Q2Plans(end) {
			s.Results = append(s.Results, sys.Measure("Q2", fmt.Sprint(y), np))
		}
	}
	return s, nil
}

// RunQ3 regenerates Figure 11(a): the two Query 3 plans while the
// time-period start cutoff sweeps.
func RunQ3(sc Scale, years []int) (*Series, error) {
	if len(years) == 0 {
		for y := 1988; y <= 1998; y++ {
			years = append(years, y)
		}
	}
	s := &Series{Name: "Query 3 (Figure 11a): temporal self-join", XLabel: "start cutoff"}
	sys, err := NewSystem(Config{
		PositionRows: sc.Q3Position, EmployeeRows: 100,
		Latency: sc.Latency, Histograms: sc.Histograms, Calibrate: sc.Calibrate,
	})
	if err != nil {
		return nil, err
	}
	for _, y := range years {
		cutoff := Day(y, time.January, 1)
		for _, np := range Q3Plans(cutoff) {
			s.Results = append(s.Results, sys.Measure("Q3", fmt.Sprint(y), np))
		}
	}
	return s, nil
}

// RunQ4 regenerates Figure 11(b): the three Query 4 plans over the
// POSITION size sweep.
func RunQ4(sc Scale) (*Series, error) {
	s := &Series{Name: "Query 4 (Figure 11b): regular join", XLabel: "|POSITION|"}
	for _, size := range sc.PositionSizes {
		sys, err := NewSystem(Config{
			PositionRows: size, EmployeeRows: sc.Q4Employee,
			Latency: sc.Latency, Histograms: sc.Histograms, Calibrate: sc.Calibrate,
		})
		if err != nil {
			return nil, err
		}
		for _, np := range Q4Plans() {
			s.Results = append(s.Results, sys.Measure("Q4", fmt.Sprint(size), np))
		}
	}
	return s, nil
}

// MemoCount is the optimizer accounting for one query (the paper
// reports 12/29, 142/452, 104/301, 13/30 for its Volcano memo).
type MemoCount struct {
	Query    string
	Classes  int
	Elements int
	Chosen   string // signature of the chosen plan
	Cost     float64
}

// RunMemo reports the per-query optimizer accounting.
func RunMemo(sc Scale) ([]MemoCount, error) {
	sys, err := NewSystem(Config{
		PositionRows: sc.Q2Position, EmployeeRows: sc.Q4Employee,
		Histograms: sc.Histograms, Calibrate: sc.Calibrate,
	})
	if err != nil {
		return nil, err
	}
	var out []MemoCount
	cases := []struct {
		name    string
		initial *algebra.Node
	}{
		{"Q1", Q1Initial()},
		{"Q2", Q2Initial(Day(1990, time.January, 1))},
		{"Q3", Q3Initial(Day(1990, time.January, 1))},
		{"Q4", Q4Initial()},
	}
	for _, c := range cases {
		res, err := sys.MW.Optimize(c.initial)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out = append(out, MemoCount{
			Query:    c.name,
			Classes:  res.Classes,
			Elements: res.Elements,
			Chosen:   PlanSignature(res.Best),
			Cost:     res.BestCost,
		})
	}
	return out, nil
}

// SelectivityRow is one line of the §3.3 worked-example table.
type SelectivityRow struct {
	Method    string
	Predicted float64 // predicted result fraction
	Actual    float64
}

// RunSelectivity reproduces the §3.3 worked example on live synthetic
// data: 100k uniform 7-day periods over 1995–2000, Overlaps(Feb 1
// 1997, Feb 8 1997).
func RunSelectivity() ([]SelectivityRow, error) {
	const n = 100000
	rng := rand.New(rand.NewSource(5))
	lo := Day(1995, time.January, 1)
	hi := Day(1999, time.December, 25)
	a := Day(1997, time.February, 1)
	b := Day(1997, time.February, 8)
	actual := 0
	var t1s, t2s []types.Value
	for i := 0; i < n; i++ {
		s := lo + rng.Int63n(hi-lo+1)
		e := s + 7
		if s < b && e > a {
			actual++
		}
		t1s = append(t1s, types.Date(s))
		t2s = append(t2s, types.Date(e))
	}
	actualFrac := float64(actual) / n

	in := statsRel(t1s, t2s, n)
	predSrc := fmt.Sprintf("T1 < %s AND T2 > %s", dateLit(b), dateLit(a))
	p := pred(predSrc)

	naive := (&stats.Estimator{Mode: stats.ModeNaive}).Selectivity(p, in)
	semantic := (&stats.Estimator{Mode: stats.ModeSemantic}).Selectivity(p, in)

	// With histograms.
	inH := statsRelWithHistograms(t1s, t2s, n, 20)
	semanticH := (&stats.Estimator{Mode: stats.ModeSemantic}).Selectivity(p, inH)

	return []SelectivityRow{
		{Method: "naive (independent predicates)", Predicted: naive, Actual: actualFrac},
		{Method: "StartBefore/EndBefore", Predicted: semantic, Actual: actualFrac},
		{Method: "StartBefore/EndBefore + histograms", Predicted: semanticH, Actual: actualFrac},
	}, nil
}

// statsRel builds RelStats from generated T1/T2 values (min/max and
// distinct counts only — the "standard statistics").
func statsRel(t1s, t2s []types.Value, card int) *stats.RelStats {
	return &stats.RelStats{
		Card:         float64(card),
		AvgTupleSize: 24,
		Cols: map[string]*meta.ColumnStats{
			"T1": colStats("T1", t1s, nil),
			"T2": colStats("T2", t2s, nil),
		},
	}
}

// statsRelWithHistograms additionally attaches height-balanced
// histograms.
func statsRelWithHistograms(t1s, t2s []types.Value, card, buckets int) *stats.RelStats {
	return &stats.RelStats{
		Card:         float64(card),
		AvgTupleSize: 24,
		Cols: map[string]*meta.ColumnStats{
			"T1": colStats("T1", t1s, meta.BuildHistogram(t1s, buckets)),
			"T2": colStats("T2", t2s, meta.BuildHistogram(t2s, buckets)),
		},
	}
}

func colStats(name string, vals []types.Value, h *meta.Histogram) *meta.ColumnStats {
	cs := &meta.ColumnStats{Name: name, Histogram: h}
	distinct := map[int64]bool{}
	for _, v := range vals {
		if cs.Min.IsNull() || types.Less(v, cs.Min) {
			cs.Min = v
		}
		if cs.Max.IsNull() || types.Less(cs.Max, v) {
			cs.Max = v
		}
		distinct[v.AsInt()] = true
	}
	cs.Distinct = int64(len(distinct))
	return cs
}

// ChoiceRow reports, for one sweep point, what the optimizer chose and
// how it compares to the measured-best named plan (the robustness
// question of §5.1: is the chosen plan within ~20% of the best?).
type ChoiceRow struct {
	Param        string
	Chosen       string        // signature of the optimizer's plan
	ChosenTime   time.Duration // measured time of the optimizer's plan
	BestPlan     string        // name of the fastest named plan
	BestTime     time.Duration
	WithinFactor float64 // ChosenTime / BestTime
}

// RunChoice evaluates the optimizer's plan choice on Query 3 (where
// the paper reports the crossover and the misprediction band) across
// the cutoff sweep.
func RunChoice(sc Scale, years []int) ([]ChoiceRow, error) {
	if len(years) == 0 {
		years = []int{1990, 1993, 1995, 1996, 1997, 1998}
	}
	sys, err := NewSystem(Config{
		PositionRows: sc.Q3Position, EmployeeRows: 100,
		Latency: sc.Latency, Histograms: sc.Histograms, Calibrate: sc.Calibrate,
	})
	if err != nil {
		return nil, err
	}
	var out []ChoiceRow
	for _, y := range years {
		cutoff := Day(y, time.January, 1)
		res, err := sys.MW.Optimize(Q3Initial(cutoff))
		if err != nil {
			return nil, err
		}
		_, chosenTime, err := sys.RunPlan(NamedPlan{Name: "chosen", Plan: res.Best})
		if err != nil {
			return nil, err
		}
		best := Measurement{Elapsed: 1<<62 - 1}
		for _, np := range Q3Plans(cutoff) {
			m := sys.Measure("Q3", fmt.Sprint(y), np)
			if m.Err == nil && m.Elapsed < best.Elapsed {
				best = m
			}
		}
		row := ChoiceRow{
			Param:      fmt.Sprint(y),
			Chosen:     PlanSignature(res.Best),
			ChosenTime: chosenTime,
			BestPlan:   best.Plan,
			BestTime:   best.Elapsed,
		}
		if best.Elapsed > 0 {
			row.WithinFactor = float64(chosenTime) / float64(best.Elapsed)
		}
		out = append(out, row)
	}
	return out, nil
}

// Q2ChoiceRow reports the optimizer's Query 2 plan choice under three
// estimator configurations — the §5.2 comparison: "When used without
// histograms, the optimizer returned the second plan for [early ends]
// and the first plan for all other queries. When used with histograms,
// the optimizer always returned the second plan."
type Q2ChoiceRow struct {
	Param         string
	WithHist      string // chosen signature, semantic + histograms
	WithoutHist   string // semantic, no histograms
	NaiveEstimate string // naive independent-predicate estimation
}

// RunQ2Choice optimizes Query 2 across the period-end sweep under each
// estimator configuration.
func RunQ2Choice(sc Scale, years []int) ([]Q2ChoiceRow, error) {
	if len(years) == 0 {
		for y := 1984; y <= 1998; y += 2 {
			years = append(years, y)
		}
	}
	configs := []struct {
		name  string
		hist  int
		naive bool
	}{
		{"hist", sc.Histograms, false},
		{"nohist", 0, false},
		{"naive", 0, true},
	}
	chosen := map[string]map[int]string{}
	for _, cfg := range configs {
		sys, err := NewSystem(Config{
			PositionRows: sc.Q2Position, EmployeeRows: 100,
			Histograms: cfg.hist, Calibrate: sc.Calibrate,
		})
		if err != nil {
			return nil, err
		}
		if cfg.naive {
			sys.MW.Est.Mode = stats.ModeNaive
		}
		chosen[cfg.name] = map[int]string{}
		for _, y := range years {
			res, err := sys.MW.Optimize(Q2Initial(Day(y, time.January, 1)))
			if err != nil {
				return nil, err
			}
			chosen[cfg.name][y] = PlanSignature(res.Best)
		}
	}
	var out []Q2ChoiceRow
	for _, y := range years {
		out = append(out, Q2ChoiceRow{
			Param:         fmt.Sprint(y),
			WithHist:      chosen["hist"][y],
			WithoutHist:   chosen["nohist"][y],
			NaiveEstimate: chosen["naive"][y],
		})
	}
	return out, nil
}

// AdaptRow traces one step of the cost-factor feedback loop.
type AdaptRow struct {
	Step int
	PTm  float64 // µs per byte after this step
}

// RunAdapt repeatedly executes the Query 1 middleware plan and traces
// the transfer factor p_tm from its default (the paper's §7 feedback
// direction): each step refits it by least squares to the measured
// byte rates in its window.
func RunAdapt(sc Scale, steps int) ([]AdaptRow, error) {
	if steps <= 0 {
		steps = 6
	}
	sys, err := NewSystem(Config{
		PositionRows: sc.Q2Position, EmployeeRows: 100,
		Latency: sc.Latency, Histograms: sc.Histograms,
	})
	if err != nil {
		return nil, err
	}
	var out []AdaptRow
	for i := 1; i <= steps; i++ {
		res, err := sys.MW.Optimize(Q1Initial())
		if err != nil {
			return nil, err
		}
		if _, err := sys.MW.Execute(res.Best); err != nil {
			return nil, err
		}
		out = append(out, AdaptRow{Step: i, PTm: sys.MW.Model.F.TM})
	}
	return out, nil
}
