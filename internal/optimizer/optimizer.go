package optimizer

import (
	"fmt"
	"sort"
	"time"

	"tango/internal/algebra"
	"tango/internal/cost"
	"tango/internal/planck"
	"tango/internal/stats"
)

// Candidate is one complete plan with its estimated cost.
type Candidate struct {
	Plan *algebra.Node
	Cost float64
}

// Result carries the chosen plan and the optimizer accounting the
// paper reports per query: equivalence classes and class elements,
// plus search statistics for the telemetry exporter.
type Result struct {
	Best     *algebra.Node
	BestCost float64
	// Candidates, sorted by ascending cost, are the cheapest completion
	// of every expression of the root group, plus the cheapest plan
	// without a T^D and the cheapest all-DBMS plan (the fallbacks of
	// tango/fallback.go).
	Candidates []Candidate
	Classes    int
	Elements   int
	// PlansCosted counts the expressions priced for a goal; a goal that
	// takes a wider goal's winner prices none.
	PlansCosted int
	// RulesFired counts successful rule applications by rule name
	// (including rewrites the memo already held).
	RulesFired map[string]int
	// Elapsed is the wall time of the whole optimization.
	Elapsed time.Duration
	// Catalog is the view of the catalog the optimization read: every
	// base table's schema and statistics it fetched, each once. Running
	// and explaining the chosen plan through it fetches them no more.
	Catalog *stats.Snapshot
}

// Optimize is the Volcano optimizer of §2.1: it explores the memo of
// an initial plan (which assigns all processing to the DBMS with a
// single T^M on top) with the transformation rules, then searches it
// for the cheapest plan under model, each memo expression priced once
// per goal from its inputs' cheapest plans. The chosen plan delivers
// the order the initial plan promises. model's estimator reads each
// base table's catalog entry and statistics once per optimization.
func Optimize(model *cost.Model, initial *algebra.Node) (*Result, error) {
	start := time.Now()
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: initial plan: %w", err)
	}
	m := newMemo(model.Est.Snapshot(), model)
	m.rules = DefaultRules(m.schema)
	root := m.insert(initial, -1)
	if root < 0 || m.groups[root].loc != algebra.LocMW {
		return nil, fmt.Errorf("optimizer: initial plan does not deliver to the middleware")
	}
	var order []string
	if p, err := planck.Infer(initial, m.snap); err == nil {
		order = p.Order
	}
	m.explore()
	root = m.find(root)

	res := &Result{RulesFired: m.fired, Catalog: m.snap}
	seen := map[string]bool{}
	add := func(c Candidate) {
		if k := c.Plan.Key(); !seen[k] {
			seen[k] = true
			res.Candidates = append(res.Candidates, c)
		}
	}
	s := &search{m: m, wins: map[goal]*win{}}
	winner := func(c class) {
		if w := s.best(root, order, c); w != nil {
			add(Candidate{Plan: s.plan(root, order, c), Cost: w.cost})
		}
	}
	if winner(anyPlan); len(res.Candidates) == 0 {
		return nil, fmt.Errorf("optimizer: no executable candidate plans")
	}
	for _, e := range m.groups[root].exprs {
		if c, ok := s.completion(e, order); ok {
			add(c)
		}
	}
	winner(noTD)
	winner(allDBMS)
	res.PlansCosted = s.costed
	// The winner stays first among equal costs.
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return cheaper(res.Candidates[i].Cost, res.Candidates[j].Cost)
	})
	res.Best, res.BestCost = res.Candidates[0].Plan, res.Candidates[0].Cost
	res.Classes, res.Elements = m.counts()
	res.Elapsed = time.Since(start)
	return res, nil
}
