// Package stats implements the middleware's Statistics Collector and
// the cardinality estimation of §3 of the paper: standard selectivity
// estimation for non-temporal predicates, the StartBefore/EndBefore
// technique for temporal predicates (with and without histograms), the
// temporal aggregation cardinality bounds of §3.4, and join/temporal
// join estimation. The estimator derives statistics for every node of
// an algebra plan, which is what the cost formulas consume.
package stats

import (
	"fmt"
	"math"
	"strings"

	"tango/internal/algebra"
	"tango/internal/meta"
	"tango/internal/sqlast"
	"tango/internal/types"
)

// Source provides base-relation statistics (the Statistics Collector
// fetches them from the DBMS catalog).
type Source interface {
	TableStats(table string, histogramBuckets int) (*meta.TableStats, error)
}

// EpochSource is a Source whose reads also name the DBMS metadata
// epoch they were made under (client.Conn).
type EpochSource interface {
	TableStatsAt(table string, histogramBuckets int) (*meta.TableStats, uint64, error)
}

// EpochCatalog is a Catalog whose reads also name the DBMS metadata
// epoch they were made under (client.Conn and the middleware's
// catalog over it).
type EpochCatalog interface {
	TableSchemaAt(name string) (types.Schema, uint64, error)
}

// Mode selects the temporal selectivity technique.
type Mode int

// Estimation modes.
const (
	// ModeNaive treats temporal predicates like any others, multiplying
	// independent selectivities (the straw man of §3.3: a factor of 40
	// off on the worked example).
	ModeNaive Mode = iota
	// ModeSemantic applies the StartBefore/EndBefore estimation, which
	// exploits that a period's end never precedes its start.
	ModeSemantic
)

// RelStats describes one (intermediate) relation.
type RelStats struct {
	Card         float64
	AvgTupleSize float64
	Cols         map[string]*meta.ColumnStats // keyed by upper-case algebra name
}

// Size returns Card × AvgTupleSize — the paper's size(r).
func (s *RelStats) Size() float64 { return s.Card * s.AvgTupleSize }

// Col returns column statistics or nil.
func (s *RelStats) Col(name string) *meta.ColumnStats {
	if c, ok := s.Cols[strings.ToUpper(name)]; ok {
		return c
	}
	if strings.Contains(name, ".") { // qualified lookup against an unqualified key
		return s.Cols[strings.ToUpper(algebra.Unqualify(name))]
	}
	suffix := "." + strings.ToUpper(name) // unqualified lookup against a qualified key
	for k, c := range s.Cols {
		if strings.HasSuffix(k, suffix) {
			return c
		}
	}
	return nil
}

// Estimator derives statistics for algebra plans. It keeps nothing
// between calls: every Estimate and every Snapshot asks its Source and
// Cat again. Freshness is theirs to keep: the connection answers from
// a cache that holds for one DBMS metadata epoch, which ANALYZE and DDL
// advance, so ANALYZE between two calls is seen.
type Estimator struct {
	Cat    algebra.Catalog
	Source Source
	Mode   Mode
	// HistogramBuckets requests histograms when collecting base stats;
	// 0 disables them (the paper evaluates the optimizer both ways).
	HistogramBuckets int
}

// NewEstimator creates an estimator in semantic mode with histograms.
func NewEstimator(cat algebra.Catalog, src Source) *Estimator {
	return &Estimator{Cat: cat, Source: src, Mode: ModeSemantic, HistogramBuckets: 20}
}

// Estimate derives statistics for the subtree.
func (e *Estimator) Estimate(n *algebra.Node) (*RelStats, error) {
	s, _, err := e.Snapshot().Estimate(n, nil)
	return s, err
}

// Snapshot is one optimization's (or one estimate's) view of the
// catalog: each base table's schema and statistics are fetched at most
// once, on first use. It implements algebra.Catalog.
type Snapshot struct {
	e       *Estimator
	schemas map[string]types.Schema
	tables  map[string]*meta.TableStats
	epoch   uint64 // the oldest metadata epoch a read was made under; 0: none
}

// Snapshot starts an empty view of the catalog.
func (e *Estimator) Snapshot() *Snapshot {
	return &Snapshot{e: e, schemas: map[string]types.Schema{}, tables: map[string]*meta.TableStats{}}
}

// Epoch returns the oldest DBMS metadata epoch any of the view's reads
// was made under: a plan built from the view is valid while the DBMS
// is at that epoch. 0 means no read named one (a catalog and a source
// that are not EpochCatalog and EpochSource), and the plan is not
// checked.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// TableSchema returns the base table's schema, fetched once.
func (s *Snapshot) TableSchema(name string) (types.Schema, error) {
	return once(s, s.schemas, name, func() (types.Schema, uint64, error) {
		if ec, ok := s.e.Cat.(EpochCatalog); ok {
			return ec.TableSchemaAt(name)
		}
		sch, err := s.e.Cat.TableSchema(name)
		return sch, 0, err
	})
}

func (s *Snapshot) tableStats(name string) (*meta.TableStats, error) {
	return once(s, s.tables, name, func() (*meta.TableStats, uint64, error) {
		if es, ok := s.e.Source.(EpochSource); ok {
			return es.TableStatsAt(name, s.e.HistogramBuckets)
		}
		st, err := s.e.Source.TableStats(name, s.e.HistogramBuckets)
		return st, 0, err
	})
}

// once returns the cached value for a table name, fetching it on first
// use (errors are not cached) and keeping the oldest epoch of the
// view's reads.
func once[T any](s *Snapshot, cache map[string]T, name string, fetch func() (T, uint64, error)) (T, error) {
	k := strings.ToUpper(name)
	if v, ok := cache[k]; ok {
		return v, nil
	}
	v, epoch, err := fetch()
	if err == nil {
		cache[k] = v
		if epoch != 0 && (s.epoch == 0 || epoch < s.epoch) {
			s.epoch = epoch
		}
	}
	return v, err
}

// Estimate derives the statistics and schema of every operator of the
// subtree bottom up; visit, when non-nil, sees each operator with its
// output statistics and its inputs' (left, then right).
func (s *Snapshot) Estimate(n *algebra.Node, visit func(n *algebra.Node, out *RelStats, in []*RelStats)) (*RelStats, types.Schema, error) {
	var in []*RelStats
	var inSchemas []types.Schema
	for _, c := range [2]*algebra.Node{n.Left, n.Right} {
		if c != nil {
			st, sch, err := s.Estimate(c, visit)
			if err != nil {
				return nil, types.Schema{}, err
			}
			in, inSchemas = append(in, st), append(inSchemas, sch)
		}
	}
	schema, err := n.Derive(s, inSchemas...)
	if err != nil {
		return nil, types.Schema{}, err
	}
	out, err := s.Derive(n, schema, inSchemas, in)
	if err != nil {
		return nil, types.Schema{}, err
	}
	if visit != nil {
		visit(n, out, in)
	}
	return out, schema, nil
}

// Derive computes one operator's statistics from its inputs' statistics
// (left, then right); schema is the operator's output schema and
// inSchemas its inputs'.
func (s *Snapshot) Derive(n *algebra.Node, schema types.Schema, inSchemas []types.Schema, in []*RelStats) (*RelStats, error) {
	switch n.Op {
	case algebra.OpScan:
		ts, err := s.tableStats(n.Table)
		if err != nil {
			return nil, err
		}
		return scanStats(ts, schema), nil
	case algebra.OpTM, algebra.OpTD, algebra.OpSort:
		return in[0], nil
	case algebra.OpSelect:
		return scaleStats(in[0], s.e.Selectivity(n.Pred, in[0])), nil
	case algebra.OpProject:
		return projectStats(n, schema, inSchemas[0], in[0]), nil
	case algebra.OpDupElim, algebra.OpCoalesce:
		f := 0.9 // mild default duplicate factor
		if n.Op == algebra.OpCoalesce {
			f = 0.75
		}
		out := *in[0]
		out.Card = in[0].Card * f
		return &out, nil
	case algebra.OpJoin, algebra.OpTJoin:
		return joinStats(n, in[0], in[1]), nil
	case algebra.OpTAggr:
		return taggrStats(n, schema, in[0]), nil
	default:
		return nil, fmt.Errorf("stats: unknown op %v", n.Op)
	}
}

// scanStats keys the base table's column statistics by the scan's
// (possibly alias-qualified) column names.
func scanStats(ts *meta.TableStats, schema types.Schema) *RelStats {
	out := &RelStats{
		Card:         float64(ts.Cardinality),
		AvgTupleSize: ts.AvgTupleSize,
		Cols:         map[string]*meta.ColumnStats{},
	}
	for _, c := range schema.Cols {
		if cs := ts.Column(algebra.Unqualify(c.Name)); cs != nil {
			out.Cols[strings.ToUpper(c.Name)] = cs
		}
	}
	return out
}

func projectStats(n *algebra.Node, schema, inSchema types.Schema, in *RelStats) *RelStats {
	out := &RelStats{Card: in.Card, Cols: map[string]*meta.ColumnStats{}}
	var size float64
	for i, pc := range n.Cols {
		if cs := in.Col(pc.Src); cs != nil {
			out.Cols[strings.ToUpper(schema.Cols[i].Name)] = cs
		}
		j := inSchema.ColumnIndex(pc.Src)
		if j >= 0 {
			size += kindSize(inSchema.Cols[j].Kind)
		}
	}
	// Scale the tuple size by the kept columns' share of the typed
	// width (approximation: we only know the whole-tuple average).
	var fullSize float64
	for _, c := range inSchema.Cols {
		fullSize += kindSize(c.Kind)
	}
	if fullSize > 0 && in.AvgTupleSize > 0 {
		out.AvgTupleSize = in.AvgTupleSize * size / fullSize
	} else {
		out.AvgTupleSize = size
	}
	return out
}

func kindSize(k types.Kind) float64 {
	if k == types.KindString {
		return 20
	}
	return 8
}

func scaleStats(in *RelStats, sel float64) *RelStats {
	out := &RelStats{
		Card:         in.Card * sel,
		AvgTupleSize: in.AvgTupleSize,
		Cols:         map[string]*meta.ColumnStats{},
	}
	for k, c := range in.Cols {
		cc := *c
		if float64(cc.Distinct) > out.Card {
			cc.Distinct = int64(math.Max(1, out.Card))
		}
		out.Cols[k] = &cc
	}
	return out
}

// --- Join estimation ---

func joinStats(n *algebra.Node, l, r *RelStats) *RelStats {
	temporal := n.Op == algebra.OpTJoin
	card := l.Card * r.Card
	for i := range n.LeftCols {
		var dl, dr int64 = 1, 1
		if cs := l.Col(n.LeftCols[i]); cs != nil {
			dl = cs.Distinct
		}
		if cs := r.Col(n.RightCols[i]); cs != nil {
			dr = cs.Distinct
		}
		if d := max(dl, dr); d > 0 {
			card /= float64(d)
		}
	}
	if temporal {
		card *= overlapProbability(l, r)
	}
	out := &RelStats{Card: card, Cols: map[string]*meta.ColumnStats{}}
	for k, c := range l.Cols {
		out.Cols[k] = c
	}
	for k, c := range r.Cols {
		if _, taken := out.Cols[k]; !taken {
			out.Cols[k] = c
		}
	}
	out.AvgTupleSize = l.AvgTupleSize + r.AvgTupleSize
	if temporal {
		out.AvgTupleSize = l.AvgTupleSize + math.Max(0, r.AvgTupleSize-16)
	}
	return out
}

// overlapProbability estimates the chance two periods drawn from the
// two inputs overlap, assuming uniformly placed periods (Gunadhi &
// Segev style): (E[d_l] + E[d_r]) / W, with average durations
// approximated from the midpoints of the T1/T2 ranges.
func overlapProbability(l, r *RelStats) float64 {
	ld, lspan, lok := durationAndSpan(l)
	rd, rspan, rok := durationAndSpan(r)
	if !lok || !rok {
		return 0.1 // no time statistics: fixed default
	}
	w := math.Max(lspan, rspan)
	if w <= 0 {
		return 1
	}
	return math.Min(1, math.Max(1e-6, (ld+rd)/w))
}

func durationAndSpan(s *RelStats) (dur, span float64, ok bool) {
	t1 := s.Col("T1")
	t2 := s.Col("T2")
	if t1 == nil || t2 == nil || t1.Min.IsNull() || t2.Max.IsNull() {
		return 0, 0, false
	}
	midT1 := (t1.Min.AsFloat() + t1.Max.AsFloat()) / 2
	midT2 := (t2.Min.AsFloat() + t2.Max.AsFloat()) / 2
	dur = math.Max(1, midT2-midT1)
	span = t2.Max.AsFloat() - t1.Min.AsFloat()
	return dur, span, true
}

// --- Temporal aggregation estimation (§3.4) ---

func taggrStats(n *algebra.Node, schema types.Schema, in *RelStats) *RelStats {
	out := &RelStats{Card: TAggrCardinality(in, n.GroupBy), Cols: map[string]*meta.ColumnStats{}}
	var size float64
	for _, c := range schema.Cols {
		size += kindSize(c.Kind)
		if cs := in.Col(c.Name); cs != nil {
			out.Cols[strings.ToUpper(c.Name)] = cs
		}
	}
	out.AvgTupleSize = size
	return out
}

// TAggrCardinality implements the §3.4 bounds: the minimum is
// min(distinct(G_i), distinct(T1)+1, distinct(T2)+1); the maximum is
// 2·card−1 refined by the per-group formula; the estimate is 60% of
// the maximum when that exceeds the minimum, else the minimum.
func TAggrCardinality(in *RelStats, groupBy []string) float64 {
	card := in.Card
	if card <= 0 {
		return 0
	}
	distinctOf := func(col string) float64 {
		if cs := in.Col(col); cs != nil && cs.Distinct > 0 {
			return float64(cs.Distinct)
		}
		return card
	}
	dT1 := distinctOf("T1")
	dT2 := distinctOf("T2")

	minCard := math.Min(dT1+1, dT2+1)
	maxGroupDistinct := 1.0
	if len(groupBy) > 0 {
		minG := math.Inf(1)
		for _, g := range groupBy {
			d := distinctOf(g)
			minG, maxGroupDistinct = min(minG, d), max(maxGroupDistinct, d)
		}
		minCard = math.Min(minCard, minG)
	}

	var maxCard float64
	if len(groupBy) == 0 {
		maxCard = dT1 + dT2 + 1
	} else {
		perGroup := card / maxGroupDistinct
		maxCard = (perGroup*2 - 1) * maxGroupDistinct
	}
	maxCard = math.Min(maxCard, 2*card-1)

	est := 0.6 * maxCard
	if est < minCard {
		est = minCard
	}
	return est
}

// --- Selectivity (§3.3) ---

// Selectivity estimates the fraction of tuples satisfying pred, using
// the estimator's mode for temporal predicates.
func (e *Estimator) Selectivity(pred sqlast.Expr, in *RelStats) float64 {
	conj := sqlast.Conjuncts(pred)
	if e.Mode == ModeSemantic {
		if sel, used, rest := e.temporalPairSelectivity(conj, in); used {
			for _, c := range rest {
				sel *= e.simpleSelectivity(c, in)
			}
			return clampSel(sel)
		}
	}
	sel := 1.0
	for _, c := range conj {
		sel *= e.simpleSelectivity(c, in)
	}
	return clampSel(sel)
}

func clampSel(s float64) float64 { return math.Min(1, math.Max(0, s)) }

// temporalPairSelectivity detects the Overlaps pattern
// (T1 < B AND T2 > A) among the conjuncts and estimates it as
// (StartBefore(B) − EndBefore(A+1)) / card. It returns the remaining
// conjuncts for independent estimation.
func (e *Estimator) temporalPairSelectivity(conj []sqlast.Expr, in *RelStats) (float64, bool, []sqlast.Expr) {
	var t1Hi, t2Lo *float64
	var t1HiIncl, t2LoIncl bool
	var rest []sqlast.Expr
	used := make([]bool, len(conj))
	for i, c := range conj {
		col, op, val, ok := comparisonOnColumn(c)
		if !ok {
			continue
		}
		base := strings.ToUpper(algebra.Unqualify(col))
		switch {
		case base == "T1" && (op == sqlast.OpLt || op == sqlast.OpLe) && t1Hi == nil:
			v := val
			t1Hi, t1HiIncl = &v, op == sqlast.OpLe
			used[i] = true
		case base == "T2" && (op == sqlast.OpGt || op == sqlast.OpGe) && t2Lo == nil:
			v := val
			t2Lo, t2LoIncl = &v, op == sqlast.OpGe
			used[i] = true
		}
	}
	if t1Hi == nil || t2Lo == nil {
		return 0, false, nil
	}
	for i, c := range conj {
		if !used[i] {
			rest = append(rest, c)
		}
	}
	t1 := in.Col("T1")
	t2 := in.Col("T2")
	if t1 == nil || t2 == nil || in.Card <= 0 {
		return 0.1, true, rest
	}
	// Overlaps(A, B): SQL condition T1 < B AND T2 > A. StartBefore is
	// exclusive (< B); an inclusive bound shifts by one day.
	b := *t1Hi
	if t1HiIncl {
		b++
	}
	a := *t2Lo
	if t2LoIncl {
		a--
	}
	started := StartBefore(b, t1, in.Card)
	ended := EndBefore(a+1, t2, in.Card)
	sel := (started - ended) / in.Card
	return clampSel(sel), true, rest
}

// comparisonOnColumn decomposes "col op literal" (either orientation)
// into its parts.
func comparisonOnColumn(e sqlast.Expr) (col string, op sqlast.BinaryOp, val float64, ok bool) {
	b, isBin := e.(sqlast.BinaryExpr)
	if !isBin {
		return "", 0, 0, false
	}
	switch b.Op {
	case sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe, sqlast.OpEq, sqlast.OpNe:
	default:
		return "", 0, 0, false
	}
	if cr, okL := b.Left.(sqlast.ColumnRef); okL {
		if lit, okR := b.Right.(sqlast.Literal); okR && !lit.Value.IsNull() {
			return cr.String(), b.Op, lit.Value.AsFloat(), true
		}
	}
	if lit, okL := b.Left.(sqlast.Literal); okL && !lit.Value.IsNull() {
		if cr, okR := b.Right.(sqlast.ColumnRef); okR {
			flip := map[sqlast.BinaryOp]sqlast.BinaryOp{
				sqlast.OpLt: sqlast.OpGt, sqlast.OpLe: sqlast.OpGe,
				sqlast.OpGt: sqlast.OpLt, sqlast.OpGe: sqlast.OpLe,
				sqlast.OpEq: sqlast.OpEq, sqlast.OpNe: sqlast.OpNe,
			}
			return cr.String(), flip[b.Op], lit.Value.AsFloat(), true
		}
	}
	return "", 0, 0, false
}

// simpleSelectivity is the standard single-predicate estimation:
// equality 1/distinct, ranges by uniform interpolation or histogram.
func (e *Estimator) simpleSelectivity(c sqlast.Expr, in *RelStats) float64 {
	if b, ok := c.(sqlast.BinaryExpr); ok && (b.Op == sqlast.OpAnd || b.Op == sqlast.OpOr) {
		ls := e.simpleSelectivity(b.Left, in)
		rs := e.simpleSelectivity(b.Right, in)
		if b.Op == sqlast.OpAnd {
			return ls * rs
		}
		return clampSel(ls + rs - ls*rs)
	}
	if bt, ok := c.(sqlast.Between); ok {
		lo, okLo := literalValue(bt.Lo)
		hi, okHi := literalValue(bt.Hi)
		if cr, okC := bt.Expr.(sqlast.ColumnRef); okC && okLo && okHi {
			cs := in.Col(cr.String())
			if cs != nil {
				s := cs.FractionBelow(hi+1) - cs.FractionBelow(lo)
				if bt.Not {
					s = 1 - s
				}
				return clampSel(s)
			}
		}
		return 0.25
	}
	col, op, val, ok := comparisonOnColumn(c)
	if !ok {
		return defaultSel(c)
	}
	cs := in.Col(col)
	if cs == nil || in.Card <= 0 {
		return defaultSel(c)
	}
	switch op {
	case sqlast.OpEq:
		if cs.Distinct > 0 {
			return clampSel(1 / float64(cs.Distinct))
		}
		return 0.01
	case sqlast.OpNe:
		if cs.Distinct > 0 {
			return clampSel(1 - 1/float64(cs.Distinct))
		}
		return 0.99
	case sqlast.OpLt:
		return clampSel(cs.FractionBelow(val))
	case sqlast.OpLe:
		return clampSel(cs.FractionBelow(val + 1))
	case sqlast.OpGt:
		return clampSel(1 - cs.FractionBelow(val+1))
	case sqlast.OpGe:
		return clampSel(1 - cs.FractionBelow(val))
	}
	return defaultSel(c)
}

func literalValue(e sqlast.Expr) (float64, bool) {
	if lit, ok := e.(sqlast.Literal); ok && !lit.Value.IsNull() {
		return lit.Value.AsFloat(), true
	}
	return 0, false
}

func defaultSel(e sqlast.Expr) float64 {
	switch e.(type) {
	case sqlast.IsNull:
		return 0.05
	default:
		return 1.0 / 3
	}
}

// StartBefore implements the paper's StartBefore(A, r): the number of
// tuples whose T1 is strictly before A.
func StartBefore(a float64, t1 *meta.ColumnStats, card float64) float64 {
	return t1.FractionBelow(a) * card
}

// EndBefore implements the paper's EndBefore(A, r): the number of
// tuples whose T2 is strictly before A.
func EndBefore(a float64, t2 *meta.ColumnStats, card float64) float64 {
	return t2.FractionBelow(a) * card
}
