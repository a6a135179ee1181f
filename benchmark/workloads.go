package main

import (
	"fmt"
	"time"

	"tango/internal/algebra"
	"tango/internal/sqlast"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

// numLiterals is the size of the fixed value set a seeded literal is
// drawn from. The values of one statement are a week (or five cents)
// apart, so every draw does the same amount of work and a round's
// latency samples stay homogeneous; what varies is the statement text,
// which is all a plan cache keyed on the normalised shape needs.
const numLiterals = 8

type stmtKind int

const (
	kindTSQL stmtKind = iota // tsql.Parse + Middleware.Run
	kindSQL                  // Conn.QueryAll, bypassing the middleware
	kindPlan                 // forced algebra plan through tango.Executor.Run
	kindLoad                 // Conn.Load of generated rows into POSLOG
)

// stmt is one statement of a workload's round.
type stmt struct {
	name string
	kind stmtKind
	// seeded statements draw lit from the seeded stream each round;
	// the others always run with lit 0.
	seeded bool
	// text renders the statement (kindTSQL, kindSQL).
	text func(lit int) string
	// plan builds the forced plan and ref its all-DBMS equivalent
	// (kindPlan).
	plan, ref func(lit int) *algebra.Node
}

// workload is one named set of inputs: data sizes, store, client
// count and the fixed statement list of a round.
type workload struct {
	name    string
	why     string
	posRows int
	empRows int
	clients int
	durable bool // FileDisk with a 64-page pool instead of the in-memory store
	stmts   []stmt
}

// poslogBatch is the number of rows one durable_td round loads, and
// poslogResetEvery the number of rounds after which the harness drops
// and recreates POSLOG (outside any timed section) so the table, and
// with it the round's COUNT scan, does not grow with the run length.
const (
	poslogBatch      = 200
	poslogResetEvery = 25
)

func day(y int, m time.Month, d int, lit int) string {
	return "DATE '" + types.Date(types.DayOf(y, m, d)+7*int64(lit)).String() + "'"
}

func constText(s string) func(int) string { return func(int) string { return s } }

const (
	sqlTAggr    = "VALIDTIME SELECT PosID, COUNT(PosID) FROM POSITION GROUP BY PosID"
	sqlCoalesce = "VALIDTIME COALESCE SELECT PosID, EmpName, T1, T2 FROM POSITION"
	sqlJoin     = "SELECT P.PosID, E.EmpName, E.Addr FROM POSITION P, EMPLOYEE E WHERE P.EmpID = E.EmpID"
)

func sqlTJoin(order string) func(int) string {
	return func(lit int) string {
		d := day(1986, time.January, 1, lit)
		return "VALIDTIME SELECT A.PosID, A.EmpName, B.EmpName FROM POSITION A, POSITION B " +
			"WHERE A.PosID = B.PosID AND A.T1 < " + d + " AND B.T1 < " + d + order
	}
}

func sqlSelTAggr(lit int) string {
	return "VALIDTIME SELECT B.PosID, B.EmpName, COUNT(B.PosID) FROM POSITION B " +
		"WHERE B.PayRate > 10 AND B.T1 < " + day(1985, time.January, 1, lit) +
		" AND B.T2 > DATE '1983-01-01' GROUP BY B.PosID ORDER BY B.PosID"
}

func sqlFilter(lit int) string {
	return fmt.Sprintf("SELECT PosID, EmpName FROM POSITION WHERE PayRate > %.2f", 10+0.05*float64(lit))
}

func sqlCountPoslog(lit int) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM POSLOG WHERE PosID = %d", poslogKey(lit))
}

// poslogKey is the PosID the lit-th COUNT probes: the generator's
// PosIDs are Zipf-skewed towards 1, so small keys always have rows.
func poslogKey(lit int) int64 { return int64(lit) + 1 }

func sqlAsOf(lit int) string {
	return "VALIDTIME AS OF " + day(1996, time.June, 1, lit) +
		" SELECT PosID, EmpName FROM POSITION WHERE PayRate > 10"
}

// pred parses a predicate; the sources are the literals below, so a
// parse error is a bug in this file.
func pred(src string) sqlast.Expr {
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE " + src)
	if err != nil {
		panic(fmt.Sprintf("tangobench: bad predicate %q: %v", src, err))
	}
	return sel.Where
}

// The forced durable_td plan has the shape of the paper's Query 2
// (Figure 9): count the positions per PosID over time among those
// paying over $10 whose period overlaps [1983-01-01, 1993), ship that
// aggregate (~3.6k rows) into the DBMS, and join it there with the
// early positions. The two sides select differently on purpose: a
// temporal join's output grows with the square of the group sizes, and
// with the generator's Zipf-skewed PosIDs the same selection on both
// sides made the result size swing by ±10 % from seed to seed. The
// aggregate takes a quarter of the relation (stable in size); the join
// side stops in 1986 and leaves out the 20 most frequent PosIDs.
func q2AggArg(lit int) *algebra.Node {
	sel := pred("PayRate > 10 AND T1 < " + day(1993, time.January, 1, lit) + " AND T2 > DATE '1983-01-01'")
	return algebra.ProjectCols(algebra.Select(algebra.Scan("POSITION", ""), sel), "PosID", "T1", "T2")
}

func q2BSide(lit int) *algebra.Node {
	sel := pred("B.PosID > 20 AND B.PayRate > 10 AND B.T1 < " + day(1986, time.January, 1, lit) +
		" AND B.T2 > DATE '1983-01-01'")
	return algebra.ProjectCols(algebra.Select(algebra.Scan("POSITION", "B"), sel),
		"B.PosID", "B.EmpName", "B.T1", "B.T2")
}

var q2Count = algebra.Agg{Fn: "COUNT", Col: "PosID"}

// q2Forced is Plan 1 of §5.2: TAGGR^M above a T^M whose sort runs in
// the DBMS, the aggregate shipped back through T^D into a temp table,
// and the temporal join and final sort in the DBMS.
func q2Forced(lit int) *algebra.Node {
	aggr := algebra.TD(algebra.TAggr(
		algebra.TM(algebra.Sort(q2AggArg(lit), "PosID", "T1")), []string{"PosID"}, q2Count))
	return algebra.TM(algebra.Sort(
		algebra.TJoin(aggr, q2BSide(lit), []string{"PosID"}, []string{"B.PosID"}), "PosID", "T1"))
}

// q2AllDBMS is Plan 6: the same query with every operator in the DBMS.
func q2AllDBMS(lit int) *algebra.Node {
	return algebra.TM(algebra.Sort(
		algebra.TJoin(algebra.TAggr(q2AggArg(lit), []string{"PosID"}, q2Count), q2BSide(lit),
			[]string{"PosID"}, []string{"B.PosID"}), "PosID", "T1"))
}

var workloads = []workload{
	{
		name:    "mw_heavy",
		why:     "12k-row temporal aggregation, self-join and coalesce: execution is most of the round, so engine, codec, client fetch and xxl operators carry it",
		posRows: 12000, empRows: 4000, clients: 1,
		stmts: []stmt{
			{name: "taggr", kind: kindTSQL, text: constText(sqlTAggr)},
			{name: "tjoin", kind: kindTSQL, seeded: true, text: sqlTJoin("")},
			{name: "coalesce", kind: kindTSQL, text: constText(sqlCoalesce)},
		},
	},
	{
		name:    "opt_heavy",
		why:     "600-row data under 80-, 116- and 512-candidate searches: optimize time is most of the round and execution is near idle",
		posRows: 600, empRows: 200, clients: 1,
		stmts: []stmt{
			{name: "sel_taggr", kind: kindTSQL, seeded: true, text: sqlSelTAggr},
			{name: "tjoin", kind: kindTSQL, seeded: true, text: sqlTJoin(" ORDER BY A.PosID")},
			{name: "join", kind: kindTSQL, text: constText(sqlJoin)},
		},
	},
	{
		name:    "plain_sql",
		why:     "plain SQL from 2 sessions on one transport, bypassing parser, optimizer and xxl: optimizer and middleware changes must not move it",
		posRows: 12000, empRows: 4000, clients: 2,
		stmts: []stmt{
			{name: "count", kind: kindSQL, text: constText("SELECT COUNT(*) FROM POSITION")},
			{name: "filter", kind: kindSQL, seeded: true, text: sqlFilter},
			{name: "sort_scan", kind: kindSQL, text: constText("SELECT PosID, EmpName, T1, T2 FROM POSITION ORDER BY PosID, T1")},
			{name: "join_dbms", kind: kindSQL, text: constText(sqlJoin)},
		},
	},
	{
		name:    "durable_td",
		why:     "FileDisk with a 0.5 MiB pool: forced T^D plan, 200-row bulk load and reads, so write path, WAL commit and pool misses sit beside fetch",
		posRows: 12000, empRows: 4000, clients: 1, durable: true,
		stmts: []stmt{
			{name: "forced_td", kind: kindPlan, seeded: true, plan: q2Forced, ref: q2AllDBMS},
			{name: "load", kind: kindLoad},
			{name: "count_poslog", kind: kindSQL, seeded: true, text: sqlCountPoslog},
			{name: "asof", kind: kindTSQL, seeded: true, text: sqlAsOf},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns a copy of w with POSITION capped at maxPos rows and
// EMPLOYEE shrunk in proportion (the reduced-size cross-check and the
// smoke tests run the same statements on less data).
func (w *workload) scaled(maxPos int) *workload {
	c := *w
	if c.posRows > maxPos {
		c.empRows = max(1, c.empRows*maxPos/c.posRows)
		c.posRows = maxPos
	}
	return &c
}
