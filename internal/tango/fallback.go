// Plan-level graceful degradation: when a transfer fails with a
// transient infrastructure error that survived the client's whole
// retry budget, the middleware does not give up — it re-sites the
// query by picking, from the optimizer's already-enumerated candidate
// list, the cheapest plan that avoids the failed wire direction, and
// executes that instead. The fallback is reported in the query's span
// tree ("fallback" child) and in tango_plan_fallbacks_total.
package tango

import (
	"errors"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/optimizer"
	"tango/internal/rel"
	"tango/internal/telemetry"
	"tango/internal/wire"
)

// transferCounts tallies a plan's wire crossings.
func transferCounts(plan *algebra.Node) (tm, td int) {
	plan.Walk(func(n *algebra.Node) {
		switch n.Op {
		case algebra.OpTM:
			tm++
		case algebra.OpTD:
			td++
		}
	})
	return tm, td
}

// failedOp names the wire operation behind a degradable error
// ("query", "fetch", "load", "create", "drop", "exec", "stats", or ""
// when unknown).
func failedOp(err error) string {
	var oe *client.OpError
	if errors.As(err, &oe) {
		return oe.Op
	}
	var fe *wire.FaultError
	if errors.As(err, &fe) {
		return fe.Op.String()
	}
	return ""
}

// fallbackPlan picks a replacement plan from the candidate list after
// err killed res.Best. The choice re-sites the query away from the
// failed wire direction:
//
//   - load/create/drop/exec failures poison the middleware → DBMS
//     direction, so the fallback is the cheapest candidate with no T^D
//     (nothing is ever shipped down again);
//   - fetch/query/stats failures indicate a generally flaky wire, so
//     the fallback minimizes total wire crossings (T^M + T^D),
//     breaking ties by cost (candidates are cost-sorted).
//
// The fallback must differ from the failed plan (by plan key); ok is
// false when no such candidate exists.
func fallbackPlan(res *optimizer.Result, err error) (cand optimizer.Candidate, ok bool) {
	if res == nil || len(res.Candidates) < 2 {
		return optimizer.Candidate{}, false
	}
	failedKey := res.Best.Key()
	switch failedOp(err) {
	case "load", "create", "drop", "exec":
		for _, c := range res.Candidates {
			if c.Plan.Key() == failedKey {
				continue
			}
			if _, td := transferCounts(c.Plan); td == 0 {
				return c, true
			}
		}
	default: // "query", "fetch", "stats", or unknown: minimize crossings
		best := optimizer.Candidate{}
		bestCross := -1
		for _, c := range res.Candidates {
			if c.Plan.Key() == failedKey {
				continue
			}
			tm, td := transferCounts(c.Plan)
			if cross := tm + td; bestCross < 0 || cross < bestCross {
				best, bestCross = c, cross
			}
		}
		if bestCross >= 0 {
			return best, true
		}
	}
	return optimizer.Candidate{}, false
}

// runWithFallback executes res.Best through the catalog view cat and,
// when it fails with a degradable infrastructure error, re-sites the
// query onto a fallback candidate and retries once. The returned
// executor is the one whose run produced the result (for feedback
// absorption); the fallback, if taken, appears as a "fallback" child of
// root and bumps tango_plan_fallbacks_total{op}.
func (m *Middleware) runWithFallback(res *optimizer.Result, cat algebra.Catalog, root *telemetry.Span) (*rel.Relation, *Executor, error) {
	ex := m.newExecutor(cat, root)
	out, err := ex.Run(res.Best)
	if err == nil {
		return out, ex, nil
	}
	if !client.Degradable(err) {
		return nil, nil, err
	}
	cand, ok := fallbackPlan(res, err)
	if !ok {
		return nil, nil, err
	}
	op := failedOp(err)
	sp := root.Child("fallback")
	sp.Set("cause", err.Error())
	sp.Set("op", op)
	sp.SetFloat("cost", cand.Cost)
	tm, td := transferCounts(cand.Plan)
	sp.SetInt("tm", int64(tm))
	sp.SetInt("td", int64(td))
	if m.Metrics != nil {
		m.Metrics.Counter("tango_plan_fallbacks_total", telemetry.Labels{"op": op}).Inc()
	}
	ex2 := m.newExecutor(cat, sp)
	out, err2 := ex2.Run(cand.Plan)
	sp.Finish()
	if err2 != nil {
		// Both plans failed; surface the original infrastructure error
		// with the fallback's failure attached.
		return nil, nil, errors.Join(err, err2)
	}
	return out, ex2, nil
}
