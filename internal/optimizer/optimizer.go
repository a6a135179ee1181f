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

// Optimizer is the Volcano optimizer of §2.1: it explores the initial
// plan's memo with the transformation rules, then searches it for the
// cheapest plan under the cost model, each memo expression priced once
// from its inputs' cheapest plans.
type Optimizer struct {
	// Model prices plans; its estimator's catalog and statistics source
	// are read once per base table per optimization.
	Model *cost.Model
	// DisabledGroups turns heuristic groups off for ablation
	// experiments (e.g. {1: true} disables the move-to-middleware
	// rules, leaving stratum-style all-DBMS plans).
	DisabledGroups map[int]bool
}

// New creates an optimizer.
func New(model *cost.Model) *Optimizer {
	return &Optimizer{Model: model}
}

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
	// PlansCosted counts (expression, required order) pairs priced by
	// the searches.
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

// Optimize explores and searches the memo of an initial plan (which,
// per §2.1, assigns all processing to the DBMS with a single T^M on
// top). The chosen plan delivers the order the initial plan promises.
func (o *Optimizer) Optimize(initial *algebra.Node) (*Result, error) {
	start := time.Now()
	if err := initial.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: initial plan: %w", err)
	}
	m := newMemo(o.Model.Est.Snapshot(), o.Model)
	for _, r := range DefaultRules(m.schema) {
		if !o.DisabledGroups[r.Group] {
			m.rules = append(m.rules, r)
		}
	}
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
	winner := func(s *search) {
		if w := s.best(root, order); w != nil {
			add(Candidate{Plan: s.plan(root, order), Cost: w.cost})
		}
	}
	all, noTD, allDBMS := m.search(searchAll), m.search(searchNoTD), m.search(searchAllDBMS)
	if winner(all); len(res.Candidates) == 0 {
		return nil, fmt.Errorf("optimizer: no executable candidate plans")
	}
	for _, e := range m.groups[root].exprs {
		if c, ok := all.completion(e, order); ok {
			add(c)
		}
	}
	winner(noTD)
	winner(allDBMS)
	res.PlansCosted = all.costed + noTD.costed + allDBMS.costed
	// The winner stays first among equal costs.
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return cheaper(res.Candidates[i].Cost, res.Candidates[j].Cost)
	})
	res.Best, res.BestCost = res.Candidates[0].Plan, res.Candidates[0].Cost
	res.Classes, res.Elements = m.counts()
	res.Elapsed = time.Since(start)
	return res, nil
}
