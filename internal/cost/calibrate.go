package cost

import (
	"fmt"
	"math/rand"

	"tango/internal/algebra"
	"tango/internal/client"
	"tango/internal/rel"
	"tango/internal/sqlast"
	"tango/internal/sqlgen"
	"tango/internal/telemetry"
	"tango/internal/types"
	"tango/internal/xxl"
)

// Calibrator derives cost factors by timing sample operations against
// the live system, following Du et al.'s calibration idea (§6 of the
// paper): the middleware does not know which algorithms the DBMS uses,
// it only fits the observable cost of whole operations.
type Calibrator struct {
	Conn *client.Conn
	// Rows is the calibration sample size (default 20,000).
	Rows int
}

// sampleSeed makes calibration deterministic.
const sampleSeed = 1

// sampleSchema is the calibration table layout.
var sampleSchema = types.NewSchema(
	types.Column{Name: "G", Kind: types.KindInt},
	types.Column{Name: "V", Kind: types.KindInt},
	types.Column{Name: "T1", Kind: types.KindInt},
	types.Column{Name: "T2", Kind: types.KindInt},
)

// sampleRows generates periods with controllable density: groups many
// → sparse overlap, groups few + long periods → dense overlap.
func (c *Calibrator) sampleRows(n int, groups int64, maxDur int64) []types.Tuple {
	rng := rand.New(rand.NewSource(sampleSeed + int64(n) + groups))
	rows := make([]types.Tuple, n)
	for i := range rows {
		s := rng.Int63n(10000)
		rows[i] = types.Tuple{
			types.Int(rng.Int63n(groups)),
			types.Int(rng.Int63n(1000)),
			types.Int(s),
			types.Int(s + 1 + rng.Int63n(maxDur)),
		}
	}
	return rows
}

// Calibrate runs the sample workload and returns fitted factors. Each
// sample is an ObservedOp built as Middleware.absorb builds one: a
// transfer from its client.Feedback, a middleware operator from its
// instrumented self time, and a DBMS-resident one from the feedback of
// the statement that ran it, less that statement's T^M term. fit
// solves T^M first, as DBMS samples deduct it, and SortM before
// TAGGR^M, which deducts it. DupM and CoalM are priors from SelM.
func (c *Calibrator) Calibrate() (Factors, error) {
	f := DefaultFactors()
	n := c.Rows
	if n <= 0 {
		n = 20000
	}
	var err error // the first failure: every later step does nothing
	var tables []string
	defer func() {
		for _, t := range tables {
			c.Conn.DropTable(t)
		}
	}()
	load := func(rows []types.Tuple) (string, client.Feedback) {
		t, fb := c.Conn.TempName(), client.Feedback{}
		if err == nil {
			err = c.Conn.CreateTable(t, sampleSchema)
		}
		if err == nil {
			tables = append(tables, t)
			fb, err = c.Conn.Load(t, rows)
		}
		return t, fb
	}
	// query observes the DBMS-resident operator n, over inputs of in
	// bytes and inCard rows, by the statement sql that runs it.
	query := func(n *algebra.Node, in, inCard float64, sql string) ObservedOp {
		if err != nil {
			return ObservedOp{}
		}
		res, fb, qerr := c.Conn.QueryAll(sql)
		if err = qerr; err != nil {
			return ObservedOp{}
		}
		tm := f.terms(algebra.TM(n), algebra.LocMW, float64(fb.Bytes), 0, 0).cost()
		return ObservedOp{Node: n, InBytes: in, OutBytes: float64(res.ByteSize()), InCard: inCard, Micros: FromFeedback(n, fb).Micros - tm}
	}
	// run drains the middleware operator op over instrumented inputs,
	// keeping nothing, and observes it as plan node n.
	input := func(r *rel.Relation) rel.Iterator { return telemetry.Instrument("input", nil, r.Iter()) }
	run := func(n *algebra.Node, op rel.Iterator, inputs ...rel.Iterator) ObservedOp {
		if err != nil {
			return ObservedOp{}
		}
		w := telemetry.Instrument(n.Op.String(), n, op, inputs...)
		if err = rel.Each(w, func(types.Tuple) error { return nil }); err != nil {
			return ObservedOp{}
		}
		return FromStats(n, w.Stats())
	}

	// The transfers: a timed bulk load and a timed full fetch.
	table, fb := load(c.sampleRows(n, 50, 100))
	if err != nil {
		return f, err
	}
	scan := algebra.Scan(table, "")
	mw := algebra.TM(scan)
	f.fit(FromFeedback(algebra.TD(mw), fb))
	mat, fb, err := c.Conn.QueryAll("SELECT G, V, T1, T2 FROM " + table)
	if err != nil {
		return f, err
	}
	f.fit(FromFeedback(mw, fb))
	size, card := float64(mat.ByteSize()), float64(mat.Cardinality())

	// The generic DBMS formulas: COUNT(*) scans the table and ships one
	// row, ORDER BY sorts it, the self-join on G and V moves it twice.
	scanD := query(scan, 0, 0, "SELECT COUNT(*) FROM "+table)
	scanD.OutBytes = size
	f.fit(scanD)
	f.fit(query(algebra.Sort(scan, "G", "T1"), size, card, "SELECT G, V, T1, T2 FROM "+table+" ORDER BY G, T1"))
	f.fit(query(algebra.Join(scan, scan, []string{"G", "V"}, []string{"G", "V"}), 2*size, card,
		fmt.Sprintf("SELECT A.G, A.V, B.V FROM %s A, %s B WHERE A.G = B.G AND A.V = B.V", table, table)))

	// The middleware algorithms: SORT^M on G, T1; FILTER^M on a
	// one-term predicate; JOIN^M, a merge join of the sorted sample
	// with itself on G. G has 50 values, so the join's output grows
	// with the square of the sample: run counts it, keeping nothing.
	in := input(mat)
	f.fit(run(algebra.Sort(mw, "G", "T1"), xxl.NewSort(in, []int{0, 2}), in))
	pred := sqlast.BinaryExpr{Op: sqlast.OpLt, Left: sqlast.ColumnRef{Name: "V"}, Right: sqlast.Literal{Value: types.Int(500)}}
	in = input(mat)
	filter, ferr := xxl.NewFilter(in, pred)
	if err == nil {
		err = ferr
	}
	f.fit(run(algebra.Select(mw, pred), filter, in))
	mat.SortBy("G", "T1")
	l, r := input(mat), input(mat)
	f.fit(run(algebra.Join(mw, mw, []string{"G"}, []string{"G"}), xxl.NewMergeJoin(l, r, []int{0}, []int{0}), l, r))

	// TAGGR^M and TAGGR^D weigh input and output bytes apart, so each
	// is fit from two shapes: dense overlap, a big output, and sparse,
	// a near-minimal one. The DBMS's quadratic-ish SQL runs on a tenth
	// of the sample.
	out := sampleSchema.Project([]int{0, 2, 3}).Concat(types.NewSchema(types.Column{Name: "COUNTofG", Kind: types.KindInt}))
	var taggrM, taggrD [2]ObservedOp
	for i, sh := range [2]struct{ groups, maxDur int64 }{{5, 2000}, {200, 3}} {
		sample := &rel.Relation{Schema: sampleSchema, Tuples: c.sampleRows(n, sh.groups, sh.maxDur)}
		sample.SortBy("G", "T1")
		in := input(sample)
		taggrM[i] = run(algebra.TAggr(mw, []string{"G"}), xxl.NewTAggr(in, []int{0}, 2, 3, []xxl.AggSpec{{Kind: xxl.AggCount}}, out), in)
		sample = &rel.Relation{Schema: sampleSchema, Tuples: c.sampleRows(max(n/10, 500), sh.groups, sh.maxDur)}
		tbl, _ := load(sample.Tuples)
		taggr := algebra.TAggr(algebra.Scan(tbl, ""), []string{"G"}, algebra.Agg{Fn: "COUNT", Col: "G"})
		sql, _, gerr := (&sqlgen.Gen{Cat: c.Conn}).SQL(taggr)
		if err == nil {
			err = gerr
		}
		taggrD[i] = query(taggr, float64(sample.ByteSize()), float64(len(sample.Tuples)), sql)
	}
	f.fit(taggrM[:]...)
	f.fit(taggrD[:]...)

	f.DupM = f.SelM * 2
	f.CoalM = f.SelM * 1.5
	return f, err
}
