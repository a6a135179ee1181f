package cost

import (
	"fmt"
	"math/rand"
	"time"

	"tango/internal/client"
	"tango/internal/rel"
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

// Calibrate runs the sample workload and returns fitted factors.
// Factors that cannot be separated cleanly fall back to the defaults.
func (c *Calibrator) Calibrate() (Factors, error) {
	f := DefaultFactors()
	n := c.Rows
	if n <= 0 {
		n = 20000
	}
	rows := c.sampleRows(n, 50, 100)

	table := c.Conn.TempName()
	if err := c.Conn.CreateTable(table, sampleSchema); err != nil {
		return f, err
	}
	defer c.Conn.DropTable(table)

	// --- TRANSFER^D: timed bulk load.
	fbLoad, err := c.Conn.Load(table, rows)
	if err != nil {
		return f, err
	}
	if fbLoad.Bytes > 0 {
		f.TD = micros(fbLoad.Elapsed) / float64(fbLoad.Bytes)
	}

	// --- TRANSFER^M: timed full fetch.
	mat, fbFetch, err := c.Conn.QueryAll("SELECT G, V, T1, T2 FROM " + table)
	if err != nil {
		return f, err
	}
	if fbFetch.Bytes > 0 {
		f.TM = micros(fbFetch.Elapsed) / float64(fbFetch.Bytes)
	}
	size := float64(mat.ByteSize())
	card := float64(mat.Cardinality())

	// --- Generic DBMS scan: COUNT(*) forces a scan, ships one row.
	start := time.Now()
	if _, _, err := c.Conn.QueryAll("SELECT COUNT(*) FROM " + table); err != nil {
		return f, err
	}
	f.ScanD = positive(micros(time.Since(start))/size, f.ScanD)

	// --- Generic DBMS sort: ORDER BY minus the plain fetch.
	start = time.Now()
	if _, _, err := c.Conn.QueryAll("SELECT G, V, T1, T2 FROM " + table + " ORDER BY G, T1"); err != nil {
		return f, err
	}
	sortTotal := micros(time.Since(start))
	f.SortD = positive((sortTotal-micros(fbFetch.Elapsed))/(size*log2(card)), f.SortD)

	// --- SORT^M.
	start = time.Now()
	sorted, err := rel.Drain(xxl.NewSort(mat.Iter(), []int{0, 2}))
	if err != nil {
		return f, err
	}
	f.SortM = positive(micros(time.Since(start))/(size*log2(card)), f.SortM)

	// --- FILTER^M (single-term predicate).
	start = time.Now()
	kept := 0
	for _, t := range mat.Tuples {
		if t[1].AsInt() < 500 {
			kept++
		}
	}
	_ = kept
	f.SelM = positive(micros(time.Since(start))/size, f.SelM)

	// --- TAGGR^M: two runs with different output shapes, solved as a
	// 2×2 system for p_taggm1/p_taggm2 (excluding the internal sort,
	// which is priced with SortM).
	runTAggrM := func(in *rel.Relation) (elapsed, outSize float64, err error) {
		outSchema := types.NewSchema(
			types.Column{Name: "G", Kind: types.KindInt},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
			types.Column{Name: "COUNTofG", Kind: types.KindInt},
		)
		ta := xxl.NewTAggr(in.Iter(), []int{0}, 2, 3, []xxl.AggSpec{{Kind: xxl.AggCount}}, outSchema)
		st := time.Now()
		out, err := rel.Drain(ta)
		if err != nil {
			return 0, 0, err
		}
		el := micros(time.Since(st)) - f.SortM*float64(in.ByteSize())*log2(float64(in.Cardinality()))
		return el, float64(out.ByteSize()), nil
	}
	// Dense overlap: big output.
	dense := relFromRows(c.sampleRows(n, 5, 2000))
	dense.SortBy("G", "T1")
	elA, outA, err := runTAggrM(dense)
	if err != nil {
		return f, err
	}
	// Sparse: near-minimal output.
	sparse := relFromRows(c.sampleRows(n, 200, 3))
	sparse.SortBy("G", "T1")
	elB, outB, err := runTAggrM(sparse)
	if err != nil {
		return f, err
	}
	inA, inB := float64(dense.ByteSize()), float64(sparse.ByteSize())
	if p1, p2, ok := solve2(inA, outA, elA, inB, outB, elB); ok {
		f.TAggrM1, f.TAggrM2 = p1, p2
	}

	// --- JOIN^M: merge join of the sorted sample with itself on G. G
	// has 50 values, so the output grows with the square of the sample:
	// it is counted as it streams, not kept.
	start = time.Now()
	mj := xxl.NewMergeJoin(sorted.Iter(), sorted.Iter(), []int{0}, []int{0})
	joined := 0
	if err := rel.Each(mj, func(t types.Tuple) error {
		joined += t.ByteSize()
		return nil
	}); err != nil {
		return f, err
	}
	moved := 2*size + float64(joined)
	f.JoinM = positive(micros(time.Since(start))/moved, f.JoinM)

	// --- Generic DBMS join: self-join minus the transfer share.
	start = time.Now()
	jres, jfb, err := c.Conn.QueryAll(fmt.Sprintf(
		"SELECT A.G, A.V, B.V FROM %s A, %s B WHERE A.G = B.G AND A.V = B.V", table, table))
	if err != nil {
		return f, err
	}
	jmoved := 2*size + float64(jres.ByteSize())
	resid := micros(time.Since(start)) - f.TM*float64(jfb.Bytes)
	f.JoinD = positive(resid/jmoved, f.JoinD)

	// --- TAGGR^D: the generated set-based SQL, two shapes.
	runTAggrD := func(tbl string, in *rel.Relation) (elapsed, inSize, outSize float64, err error) {
		sql := taggrDSQL(tbl)
		st := time.Now()
		out, fb, err := c.Conn.QueryAll(sql)
		if err != nil {
			return 0, 0, 0, err
		}
		el := micros(time.Since(st)) - f.TM*float64(fb.Bytes)
		return el, float64(in.ByteSize()), float64(out.ByteSize()), nil
	}
	// Load a smaller sample for the quadratic-ish DBMS aggregation so
	// calibration stays fast.
	small := n / 10
	if small < 500 {
		small = 500
	}
	tblA := c.Conn.TempName()
	denseSmall := relFromRows(c.sampleRows(small, 5, 2000))
	if err := c.Conn.CreateTable(tblA, sampleSchema); err != nil {
		return f, err
	}
	defer c.Conn.DropTable(tblA)
	if _, err := c.Conn.Load(tblA, denseSmall.Tuples); err != nil {
		return f, err
	}
	elDA, inDA, outDA, err := runTAggrD(tblA, denseSmall)
	if err != nil {
		return f, err
	}
	tblB := c.Conn.TempName()
	sparseSmall := relFromRows(c.sampleRows(small, 200, 3))
	if err := c.Conn.CreateTable(tblB, sampleSchema); err != nil {
		return f, err
	}
	defer c.Conn.DropTable(tblB)
	if _, err := c.Conn.Load(tblB, sparseSmall.Tuples); err != nil {
		return f, err
	}
	elDB, inDB, outDB, err := runTAggrD(tblB, sparseSmall)
	if err != nil {
		return f, err
	}
	if p1, p2, ok := solve2(inDA, outDA, elDA, inDB, outDB, elDB); ok {
		f.TAggrD1, f.TAggrD2 = p1, p2
	}

	f.DupM = f.SelM * 2
	f.CoalM = f.SelM * 1.5
	return f, nil
}

// taggrDSQL is the calibration instance of the set-based temporal
// aggregation (COUNT grouped by G).
func taggrDSQL(table string) string {
	points := fmt.Sprintf(
		"SELECT DISTINCT G AS G0, T1 AS P FROM %s UNION SELECT DISTINCT G AS G0, T2 AS P FROM %s",
		table, table)
	intervals := fmt.Sprintf(
		"SELECT S_.G0 AS G0, S_.P AS TS, MIN(E_.P) AS TE FROM (%s) S_, (%s) E_ "+
			"WHERE S_.G0 = E_.G0 AND E_.P > S_.P GROUP BY S_.G0, S_.P",
		points, points)
	return fmt.Sprintf(
		"SELECT I_.G0 AS G, I_.TS AS T1, I_.TE AS T2, COUNT(*) AS CNT FROM (%s) I_, %s R_ "+
			"WHERE R_.G = I_.G0 AND R_.T1 <= I_.TS AND R_.T2 >= I_.TE GROUP BY I_.G0, I_.TS, I_.TE",
		intervals, table)
}

func relFromRows(rows []types.Tuple) *rel.Relation {
	r := rel.New(sampleSchema)
	r.Tuples = rows
	return r
}

// solve2 solves {p1·x1 + p2·y1 = c1; p1·x2 + p2·y2 = c2} requiring a
// well-conditioned positive solution.
func solve2(x1, y1, c1, x2, y2, c2 float64) (p1, p2 float64, ok bool) {
	det := x1*y2 - x2*y1
	if det == 0 {
		return 0, 0, false
	}
	p1 = (c1*y2 - c2*y1) / det
	p2 = (x1*c2 - x2*c1) / det
	if p1 <= 0 || p2 <= 0 || p1 != p1 || p2 != p2 {
		return 0, 0, false
	}
	return p1, p2, true
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func positive(v, fallback float64) float64 {
	if v > 0 && v == v {
		return v
	}
	return fallback
}
