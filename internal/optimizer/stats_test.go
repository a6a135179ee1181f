package optimizer

import (
	"testing"
)

// TestSearchStatisticsExported checks the telemetry accounting the
// optimizer attaches to every Result: classes/elements, the number of
// expressions the search priced, per-rule firing counts, and wall
// time.
func TestSearchStatisticsExported(t *testing.T) {
	res, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes <= 0 || res.Elements <= 0 {
		t.Fatalf("memo accounting missing: %d classes, %d elements", res.Classes, res.Elements)
	}
	if res.Elements < res.Classes {
		t.Errorf("elements (%d) < classes (%d)", res.Elements, res.Classes)
	}
	if res.PlansCosted < len(res.Candidates) {
		t.Errorf("PlansCosted = %d < candidates = %d", res.PlansCosted, len(res.Candidates))
	}
	if res.PlansCosted <= 1 {
		t.Errorf("expected several costed plans for Query 1, got %d", res.PlansCosted)
	}
	if res.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", res.Elapsed)
	}
	if len(res.RulesFired) == 0 {
		t.Fatal("no rule firings recorded")
	}
	for rule, n := range res.RulesFired {
		if rule == "" {
			t.Error("unnamed rule fired")
		}
		if n <= 0 {
			t.Errorf("rule %s fired %d times", rule, n)
		}
	}
	// Moving the aggregation to the middleware takes T1, and bringing
	// it up to the root group takes the T^M/T^D collapse T7.
	for _, rule := range []string{"T1-taggr-to-mw", "T7-collapse-tm-td"} {
		if res.RulesFired[rule] == 0 {
			t.Errorf("%s never fired: %v", rule, res.RulesFired)
		}
	}
}

// TestRulesFiredStableAcrossRuns: rule accounting must be
// deterministic, like the rest of the optimizer.
func TestRulesFiredStableAcrossRuns(t *testing.T) {
	a, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(testModel(), query1Initial())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.RulesFired) != len(b.RulesFired) {
		t.Fatalf("rule sets differ: %v vs %v", a.RulesFired, b.RulesFired)
	}
	for rule, n := range a.RulesFired {
		if b.RulesFired[rule] != n {
			t.Errorf("rule %s: %d vs %d firings", rule, n, b.RulesFired[rule])
		}
	}
}
