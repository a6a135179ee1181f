package xxl

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"tango/internal/rel"
	"tango/internal/sqlparser"
	"tango/internal/types"
)

func mkRel(names string, rows ...[]interface{}) *rel.Relation {
	var cols []types.Column
	var fields []string
	for _, f := range splitComma(names) {
		fields = append(fields, f)
	}
	if len(rows) > 0 {
		for i, f := range fields {
			kind := types.KindInt
			switch rows[0][i].(type) {
			case string:
				kind = types.KindString
			case float64:
				kind = types.KindFloat
			}
			cols = append(cols, types.Column{Name: f, Kind: kind})
		}
	} else {
		for _, f := range fields {
			cols = append(cols, types.Column{Name: f, Kind: types.KindInt})
		}
	}
	r := rel.New(types.Schema{Cols: cols})
	for _, row := range rows {
		t := make(types.Tuple, len(row))
		for i, v := range row {
			switch x := v.(type) {
			case int:
				t[i] = types.Int(int64(x))
			case string:
				t[i] = types.Str(x)
			case float64:
				t[i] = types.Float(x)
			case nil:
				t[i] = types.Null
			}
		}
		r.Append(t)
	}
	return r
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// position is the paper's Figure 3(a) relation.
func position() *rel.Relation {
	return mkRel("PosID,EmpName,T1,T2",
		[]interface{}{1, "Tom", 2, 20},
		[]interface{}{1, "Jane", 5, 25},
		[]interface{}{2, "Tom", 5, 10},
	)
}

func TestTAggrPaperExample(t *testing.T) {
	// Figure 3(c): COUNT per PosID over time.
	in := position().Clone()
	in.SortBy("PosID", "T1")
	out := types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "COUNTofPosID", Kind: types.KindInt},
	)
	ta := NewTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{{Kind: AggCount}}, out)
	got, err := rel.Drain(ta)
	if err != nil {
		t.Fatal(err)
	}
	want := [][4]int64{{1, 2, 5, 1}, {1, 5, 20, 2}, {1, 20, 25, 1}, {2, 5, 10, 1}}
	if got.Cardinality() != len(want) {
		t.Fatalf("rows:\n%v", got)
	}
	for i, w := range want {
		for j := 0; j < 4; j++ {
			if got.Tuples[i][j].AsInt() != w[j] {
				t.Fatalf("row %d = %v, want %v", i, got.Tuples[i], w)
			}
		}
	}
}

// bruteTAggr computes temporal aggregation by evaluating every
// candidate interval directly — the correctness oracle.
func bruteTAggr(in *rel.Relation, group, t1, t2 int, agg AggSpec) [][]types.Value {
	type gkey string
	groups := map[gkey][]types.Tuple{}
	var orderKeys []gkey
	for _, t := range in.Tuples {
		k := gkey(t[group].String())
		if _, ok := groups[k]; !ok {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], t)
	}
	sort.Slice(orderKeys, func(i, j int) bool { return orderKeys[i] < orderKeys[j] })
	var out [][]types.Value
	for _, k := range orderKeys {
		tuples := groups[k]
		pointSet := map[int64]bool{}
		for _, t := range tuples {
			pointSet[t[t1].AsInt()] = true
			pointSet[t[t2].AsInt()] = true
		}
		var points []int64
		for p := range pointSet {
			points = append(points, p)
		}
		sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
		for i := 0; i+1 < len(points); i++ {
			lo, hi := points[i], points[i+1]
			var vals []types.Value
			count := int64(0)
			for _, t := range tuples {
				if t[t1].AsInt() <= lo && t[t2].AsInt() >= hi {
					count++
					if agg.Kind != AggCount {
						vals = append(vals, t[agg.Col])
					}
				}
			}
			if count == 0 {
				continue
			}
			var v types.Value
			switch agg.Kind {
			case AggCount:
				v = types.Int(count)
			case AggSum:
				s := 0.0
				for _, x := range vals {
					s += x.AsFloat()
				}
				v = types.Int(int64(s))
			case AggMin:
				v = vals[0]
				for _, x := range vals {
					if types.Less(x, v) {
						v = x
					}
				}
			case AggMax:
				v = vals[0]
				for _, x := range vals {
					if types.Less(v, x) {
						v = x
					}
				}
			case AggAvg:
				s := 0.0
				for _, x := range vals {
					s += x.AsFloat()
				}
				v = types.Float(s / float64(len(vals)))
			}
			out = append(out, []types.Value{tuples[0][group], types.Int(lo), types.Int(hi), v})
		}
	}
	return out
}

func TestTAggrAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		in := rel.New(types.NewSchema(
			types.Column{Name: "G", Kind: types.KindInt},
			types.Column{Name: "V", Kind: types.KindInt},
			types.Column{Name: "T1", Kind: types.KindInt},
			types.Column{Name: "T2", Kind: types.KindInt},
		))
		for i := 0; i < n; i++ {
			s := rng.Int63n(40)
			e := s + 1 + rng.Int63n(20)
			in.Append(types.Tuple{
				types.Int(rng.Int63n(4)), types.Int(rng.Int63n(100)),
				types.Int(s), types.Int(e),
			})
		}
		for _, agg := range []AggSpec{
			{Kind: AggCount}, {Kind: AggSum, Col: 1},
			{Kind: AggMin, Col: 1}, {Kind: AggMax, Col: 1},
		} {
			sorted := in.Clone()
			sorted.SortBy("G", "T1")
			out := types.NewSchema(
				types.Column{Name: "G", Kind: types.KindInt},
				types.Column{Name: "T1", Kind: types.KindInt},
				types.Column{Name: "T2", Kind: types.KindInt},
				types.Column{Name: "A", Kind: types.KindInt},
			)
			ta := NewTAggr(sorted.Iter(), []int{0}, 2, 3, []AggSpec{agg}, out)
			got, err := rel.Drain(ta)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTAggr(sorted, 0, 2, 3, agg)
			if got.Cardinality() != len(want) {
				t.Fatalf("trial %d agg %s: %d rows, want %d\n%v",
					trial, agg.Kind, got.Cardinality(), len(want), got)
			}
			for i := range want {
				for j := 0; j < 4; j++ {
					if types.Compare(got.Tuples[i][j], want[i][j]) != 0 {
						t.Fatalf("trial %d agg %s row %d: %v vs %v",
							trial, agg.Kind, i, got.Tuples[i], want[i])
					}
				}
			}
		}
	}
	// An empty input has no intervals.
	empty := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	out := types.NewSchema(append(empty.Schema.Cols, types.Column{Name: "N", Kind: types.KindInt})...)
	if got, err := rel.Drain(NewTAggr(empty.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out)); err != nil || got.Cardinality() != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestTAggrInvariants(t *testing.T) {
	// Property: within each group, output intervals are disjoint,
	// sorted, and the output cardinality respects the paper's bounds
	// (≤ 2·n − 1 per group).
	rng := rand.New(rand.NewSource(23))
	in := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	perGroup := map[int64]int{}
	for i := 0; i < 500; i++ {
		g := rng.Int63n(10)
		s := rng.Int63n(1000)
		in.Append(types.Tuple{types.Int(g), types.Int(s), types.Int(s + 1 + rng.Int63n(50))})
		perGroup[g]++
	}
	in.SortBy("G", "T1")
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "N", Kind: types.KindInt},
	)
	ta := NewTAggr(in.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out)
	got, err := rel.Drain(ta)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	var lastG, lastEnd int64 = -1, -1
	for _, row := range got.Tuples {
		g, t1, t2, n := row[0].AsInt(), row[1].AsInt(), row[2].AsInt(), row[3].AsInt()
		if t1 >= t2 {
			t.Fatalf("degenerate interval: %v", row)
		}
		if n < 1 {
			t.Fatalf("zero-count interval emitted: %v", row)
		}
		if g == lastG && t1 < lastEnd {
			t.Fatalf("overlapping intervals in group %d: %v", g, row)
		}
		lastG, lastEnd = g, t2
		counts[g]++
	}
	for g, c := range counts {
		if c > 2*perGroup[g]-1 {
			t.Errorf("group %d: %d intervals exceeds bound %d", g, c, 2*perGroup[g]-1)
		}
	}
}

func TestMergeJoin(t *testing.T) {
	left := mkRel("K,X",
		[]interface{}{1, 10}, []interface{}{1, 11}, []interface{}{2, 20}, []interface{}{4, 40})
	right := mkRel("K,Y",
		[]interface{}{1, 100}, []interface{}{2, 200}, []interface{}{2, 201}, []interface{}{3, 300})
	j := NewMergeJoin(left.Iter(), right.Iter(), []int{0}, []int{0})
	got, err := rel.Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// 1: 2 left × 1 right = 2; 2: 1×2 = 2. Total 4.
	if got.Cardinality() != 4 {
		t.Fatalf("join rows:\n%v", got)
	}
	// Output preserves left order.
	if got.Tuples[0][1].AsInt() != 10 || got.Tuples[1][1].AsInt() != 11 {
		t.Errorf("left order not preserved:\n%v", got)
	}
}

func TestMergeJoinRandomAgainstHash(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int, name string) *rel.Relation {
		r := rel.New(types.NewSchema(
			types.Column{Name: "K", Kind: types.KindInt},
			types.Column{Name: name, Kind: types.KindInt},
		))
		for i := 0; i < n; i++ {
			r.Append(types.Tuple{types.Int(rng.Int63n(30)), types.Int(int64(i))})
		}
		r.SortBy("K")
		return r
	}
	l, r := mk(200, "X"), mk(150, "Y")
	j := NewMergeJoin(l.Iter(), r.Iter(), []int{0}, []int{0})
	got, err := rel.Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: hash join by hand.
	byKey := map[int64][]types.Tuple{}
	for _, t2 := range r.Tuples {
		byKey[t2[0].AsInt()] = append(byKey[t2[0].AsInt()], t2)
	}
	want := 0
	for _, t1 := range l.Tuples {
		want += len(byKey[t1[0].AsInt()])
	}
	if got.Cardinality() != want {
		t.Fatalf("merge join rows = %d, want %d", got.Cardinality(), want)
	}
}

func TestTJoinPaperQuery(t *testing.T) {
	// Aggregation result ⋈^T POSITION on PosID (the §2.2 example).
	aggr := mkRel("PosID,T1,T2,COUNT",
		[]interface{}{1, 2, 5, 1}, []interface{}{1, 5, 20, 2},
		[]interface{}{1, 20, 25, 1}, []interface{}{2, 5, 10, 1})
	pos := position().Clone()
	pos.SortBy("PosID")
	tj := NewTJoin(aggr.Iter(), pos.Iter(), []int{0}, []int{0}, 1, 2, 2, 3)
	got, err := rel.Drain(tj)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3(b) has 5 rows.
	if got.Cardinality() != 5 {
		t.Fatalf("tjoin rows:\n%v", got)
	}
	// Schema: PosID,T1,T2,COUNT + PosID,EmpName (right minus time).
	if got.Schema.Len() != 6 {
		t.Fatalf("tjoin schema: %v", got.Schema.Names())
	}
	// Check one row: Tom in position 1 over [5,20) with count 2.
	found := false
	for _, row := range got.Tuples {
		if row[0].AsInt() == 1 && row[1].AsInt() == 5 && row[2].AsInt() == 20 &&
			row[3].AsInt() == 2 && row[5].AsString() == "Tom" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing expected row:\n%v", got)
	}
}

func TestFilterAndProject(t *testing.T) {
	in := position()
	sel, err := sqlparser.ParseSelect("SELECT 1 WHERE T1 >= 5")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(in.Iter(), sel.Where)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("filter: %v", got)
	}
	p := NewProject(got.Iter(), []int{1, 0}, types.NewSchema(
		types.Column{Name: "Name", Kind: types.KindString},
		types.Column{Name: "P", Kind: types.KindInt},
	))
	out, err := rel.Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Cols[0].Name != "Name" || out.Tuples[0][0].AsString() != "Jane" {
		t.Errorf("project: %v", out)
	}
}

func TestDupElim(t *testing.T) {
	in := mkRel("A,B",
		[]interface{}{1, 2}, []interface{}{1, 2}, []interface{}{3, 4}, []interface{}{1, 2})
	d := NewDupElim(in.Iter())
	got, err := rel.Drain(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("dupelim: %v", got)
	}
	// Order preserved: first occurrence first.
	if got.Tuples[0][0].AsInt() != 1 || got.Tuples[1][0].AsInt() != 3 {
		t.Errorf("order: %v", got)
	}
}

func TestCoalesce(t *testing.T) {
	in := mkRel("Name,T1,T2",
		[]interface{}{"Tom", 1, 5},
		[]interface{}{"Tom", 5, 9},   // meets → merge
		[]interface{}{"Tom", 8, 12},  // overlaps → merge
		[]interface{}{"Tom", 20, 25}, // gap → new tuple
		[]interface{}{"Jane", 3, 7},
	)
	in.SortBy("Name", "T1")
	c := NewCoalesce(in.Iter(), 1, 2)
	got, err := rel.Drain(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 3 {
		t.Fatalf("coalesce:\n%v", got)
	}
	for _, row := range got.Tuples {
		if row[0].AsString() == "Tom" && row[1].AsInt() == 1 {
			if row[2].AsInt() != 12 {
				t.Errorf("merged period = %v", row)
			}
		}
	}
}

func TestCoalesceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	in := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
	))
	for i := 0; i < 300; i++ {
		s := rng.Int63n(100)
		in.Append(types.Tuple{types.Int(rng.Int63n(5)), types.Int(s), types.Int(s + 1 + rng.Int63n(20))})
	}
	in.SortBy("G", "T1")
	once, err := rel.Drain(NewCoalesce(in.Iter(), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	twice, err := rel.Drain(NewCoalesce(once.Iter(), 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !rel.EqualAsLists(once, twice) {
		t.Error("coalesce not idempotent")
	}
	// Result must have disjoint non-adjacent periods per group.
	for i := 1; i < twice.Cardinality(); i++ {
		a, b := twice.Tuples[i-1], twice.Tuples[i]
		if a[0].AsInt() == b[0].AsInt() && b[1].AsInt() <= a[2].AsInt() {
			t.Fatalf("rows %d-%d not coalesced: %v %v", i-1, i, a, b)
		}
	}
}

func TestSortSmall(t *testing.T) {
	in := mkRel("A,B", []interface{}{3, 1}, []interface{}{1, 2}, []interface{}{2, 3})
	s := NewSort(in.Iter(), []int{0})
	got, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 2, 3} {
		if got.Tuples[i][0].AsInt() != want {
			t.Fatalf("sort order: %v", got)
		}
	}
}

func TestSortExternalSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindString},
	))
	const n = 50000
	for i := 0; i < n; i++ {
		in.Append(types.Tuple{types.Int(rng.Int63n(10000)), types.Str(fmt.Sprintf("v%d", i))})
	}
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = 1000 // force ~50 spill runs
	got, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != n {
		t.Fatalf("spilled sort lost rows: %d", got.Cardinality())
	}
	for i := 1; i < n; i++ {
		if got.Tuples[i-1][0].AsInt() > got.Tuples[i][0].AsInt() {
			t.Fatalf("order violated at %d", i)
		}
	}
	if !rel.EqualAsMultisets(in, got) {
		t.Error("spilled sort changed the multiset")
	}

	// Abandoned after a few rows, or failed by its input after runs
	// were spilled, the sort leaves no run file behind.
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	early := NewSort(in.Iter(), []int{0})
	early.MemTuples = 1000
	if err := early.Open(); err != nil {
		t.Fatal(err)
	}
	if k, err := early.NextBatch(make([]types.Tuple, 10)); k != 10 || err != nil {
		t.Fatalf("NextBatch: %d rows, %v", k, err)
	}
	if err := early.Close(); err != nil {
		t.Fatal(err)
	}
	failing := NewSort(&failAfter{Iterator: in.Iter(), n: 5000}, []int{0})
	failing.MemTuples = 1000
	if err := failing.Open(); !errors.Is(err, errInputFailed) {
		t.Fatalf("Open over a failing input: %v", err)
	}
	if err := failing.Close(); err != nil {
		t.Fatal(err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("run files left behind: %v (%v)", left, err)
	}
}

var errInputFailed = errors.New("xxl_test: input failed")

// failAfter serves its iterator's first n rows in batches, then fails.
type failAfter struct {
	rel.Iterator
	n, served int
}

func (f *failAfter) Open() error { f.served = 0; return f.Iterator.Open() }

func (f *failAfter) NextBatch(dst []types.Tuple) (int, error) {
	if f.served >= f.n {
		return 0, errInputFailed
	}
	k, err := f.Iterator.NextBatch(dst[:min(len(dst), f.n-f.served)])
	f.served += k
	return k, err
}

// TestSortMergeHoldsOneBlockPerRun: the external merge reads each
// spilled run a block at a time, so the run bytes it buffers stay
// within one block per run however long the runs are.
func TestSortMergeHoldsOneBlockPerRun(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	in := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindString},
	))
	const n, runs = 5000, 5
	for i := 0; i < n; i++ {
		in.Append(types.Tuple{types.Int(rng.Int63n(10000)), types.Str(fmt.Sprintf("v%05d", i))})
	}
	// Every block of these rows takes about as many bytes as this one.
	block, _ := types.AppendBlock(nil, in.Tuples[:rel.DefaultBatchSize])
	bound := runs * (len(block) + 16)
	s := NewSort(in.Iter(), []int{0})
	s.MemTuples = n / runs
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.merger == nil || len(s.merger.readers) != runs {
		t.Fatalf("want a merge of %d runs", runs)
	}
	dst := make([]types.Tuple, 100)
	for total := 0; ; {
		buffered := 0
		for _, r := range s.merger.readers {
			buffered += len(r.data)
		}
		if buffered > bound {
			t.Fatalf("after %d rows the merge buffers %d run bytes, want <= %d (%d runs × one block)", total, buffered, bound, runs)
		}
		k, err := s.NextBatch(dst)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			if total != n {
				t.Fatalf("merge returned %d rows, want %d", total, n)
			}
			return
		}
		total += k
	}
}

func TestSortStability(t *testing.T) {
	// Stable within memory and deterministic across runs.
	in := mkRel("K,Seq",
		[]interface{}{1, 0}, []interface{}{1, 1}, []interface{}{1, 2}, []interface{}{0, 3})
	s := NewSort(in.Iter(), []int{0})
	got, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[1][1].AsInt() != 0 || got.Tuples[2][1].AsInt() != 1 || got.Tuples[3][1].AsInt() != 2 {
		t.Errorf("sort not stable: %v", got)
	}

	// Stable across spilled runs too: equal keys keep input order.
	rng := rand.New(rand.NewSource(7))
	many := rel.New(in.Schema)
	for i := 0; i < 5000; i++ {
		many.Append(types.Tuple{types.Int(rng.Int63n(50)), types.Int(int64(i))})
	}
	s = NewSort(many.Iter(), []int{0})
	s.MemTuples = 64
	if got, err = rel.Drain(s); err != nil {
		t.Fatal(err)
	}
	want := many.Clone()
	want.SortBy("K", "Seq")
	if !rel.EqualAsLists(got, want) {
		t.Error("a spilling sort is not stable across its runs")
	}
}

func TestSortDesc(t *testing.T) {
	in := mkRel("A", []interface{}{1}, []interface{}{3}, []interface{}{2})
	s := NewSortDesc(in.Iter(), []int{0}, []bool{true})
	got, err := rel.Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[0][0].AsInt() != 3 || got.Tuples[2][0].AsInt() != 1 {
		t.Errorf("desc sort: %v", got)
	}

	// A spilling sort, descending on the first of two keys, ascending
	// on the second.
	rng := rand.New(rand.NewSource(11))
	many := rel.New(types.NewSchema(
		types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "V", Kind: types.KindString},
	))
	for i := 0; i < 8000; i++ {
		many.Append(types.Tuple{types.Int(rng.Int63n(20)), types.Str(fmt.Sprintf("v%d", rng.Intn(500)))})
	}
	s = NewSortDesc(many.Iter(), []int{0, 1}, []bool{true, false})
	s.MemTuples = 500
	if got, err = rel.Drain(s); err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != many.Cardinality() || !rel.EqualAsMultisets(many, got) {
		t.Fatal("spilled desc sort changed the multiset")
	}
	for i := 1; i < got.Cardinality(); i++ {
		if types.CompareTuples(got.Tuples[i-1], got.Tuples[i], []int{0, 1}, []bool{true, false}) > 0 {
			t.Fatalf("spilled desc sort out of order at %d: %v then %v", i, got.Tuples[i-1], got.Tuples[i])
		}
	}
}

func TestTAggrMinMaxWithDepartures(t *testing.T) {
	// MIN/MAX must recover after the extreme value departs.
	in := mkRel("G,V,T1,T2",
		[]interface{}{1, 100, 0, 10}, // the max, departs at 10
		[]interface{}{1, 5, 0, 20},
	)
	in.SortBy("G", "T1")
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "M", Kind: types.KindInt},
	)
	ta := NewTAggr(in.Iter(), []int{0}, 2, 3, []AggSpec{{Kind: AggMax, Col: 1}}, out)
	got, err := rel.Drain(ta)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cardinality() != 2 {
		t.Fatalf("rows:\n%v", got)
	}
	if got.Tuples[0][3].AsInt() != 100 || got.Tuples[1][3].AsInt() != 5 {
		t.Errorf("max sweep wrong:\n%v", got)
	}
}

func TestTAggrRejectsUnsortedInput(t *testing.T) {
	in := mkRel("G,T1,T2",
		[]interface{}{1, 10, 20},
		[]interface{}{1, 2, 5}, // T1 goes backwards within the group
	)
	out := types.NewSchema(
		types.Column{Name: "G", Kind: types.KindInt},
		types.Column{Name: "T1", Kind: types.KindInt},
		types.Column{Name: "T2", Kind: types.KindInt},
		types.Column{Name: "N", Kind: types.KindInt},
	)
	ta := NewTAggr(in.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out)
	if _, err := rel.Drain(ta); err == nil {
		t.Fatal("unsorted input must be rejected")
	}
	// Group order violations are rejected too.
	in2 := mkRel("G,T1,T2",
		[]interface{}{2, 1, 5},
		[]interface{}{1, 1, 5},
	)
	ta2 := NewTAggr(in2.Iter(), []int{0}, 1, 2, []AggSpec{{Kind: AggCount}}, out)
	if _, err := rel.Drain(ta2); err == nil {
		t.Fatal("group order violation must be rejected")
	}
}

func TestMergeJoinRejectsUnsortedInputs(t *testing.T) {
	sorted := mkRel("K,V", []interface{}{1, 1}, []interface{}{2, 2})
	unsorted := mkRel("K,V", []interface{}{2, 2}, []interface{}{1, 1})
	if _, err := rel.Drain(NewMergeJoin(unsorted.Iter(), sorted.Iter(), []int{0}, []int{0})); err == nil {
		t.Fatal("unsorted left input must be rejected")
	}
	if _, err := rel.Drain(NewMergeJoin(sorted.Iter(), unsorted.Iter(), []int{0}, []int{0})); err == nil {
		t.Fatal("unsorted right input must be rejected")
	}
}
