package xxl

import (
	"fmt"
	"math/rand"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
)

// taggrCase is one input of TestTAggrMatchesDefinition (see dayRel).
type taggrCase struct {
	name string
	in   *rel.Relation
}

// TestTAggrMatchesDefinition compares TAGGR^M with what temporal
// aggregation means (snapshot reducibility): for every group and day,
// the aggregates over the rows valid that day, runs of equal days
// coalesced. Both sides are coalesced, since TAGGR^M may split a run at
// an event point where nothing changes; its periods must not overlap.
// Every case runs COUNT, SUM, AVG, MIN and MAX over each value column
// (int, float, string, all with NULLs), reading the input through
// itertest.Poisoned, so a row kept past its batch shows.
func TestTAggrMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3737))
	var cases []taggrCase
	// Touching, nested, identical, single-day and empty periods, one
	// shape a group. An empty period is valid on no day, so its 9 and "z"
	// are never the MAX. In "big" the big value leaves on the day 1
	// arrives, and a running SUM that held both would lose the 1.
	cases = append(cases, taggrCase{"shapes", dayRel(true, [][]any{
		{"touch", 1, 1, 2.5, "b", 1, 5}, {"touch", 1, 7, 0.25, "a", 5, 9},
		{"nested", 1, 3, 1.0, "c", 1, 10}, {"nested", 1, 4, nil, "a", 3, 6}, {"nested", 1, nil, 2.0, nil, 4, 5},
		{"same", 1, 2, 0.5, "x", 2, 7}, {"same", 1, 9, 0.75, "y", 2, 7},
		{"single", 1, 5, -1.5, "s", 4, 5}, {"single", 1, nil, nil, nil, 8, 9},
		{"nulls", 1, nil, nil, nil, 0, 3}, {"nulls", 1, 2, nil, nil, 1, 2},
		{"empty", 1, 1, 1.0, "a", 0, 10}, {"empty", 1, 9, 9.0, "z", 5, 5},
		{"big", 1, 1 << 53, 1.0, "z", 0, 5}, {"big", 1, 1, 2.0, "z", 5, 8},
	})})
	for _, dates := range []bool{false, true} {
		for trial := 0; trial < 6; trial++ {
			cases = append(cases, taggrCase{fmt.Sprintf("random/dates=%v/%d", dates, trial),
				randomDayRel(rng, dates, 1+trial*40, 3+trial, 5+trial*6)})
		}
		// One group of 700 rows: it spans three input batches.
		cases = append(cases, taggrCase{fmt.Sprintf("batches/dates=%v", dates), randomDayRel(rng, dates, 700, 1, 150)})
	}
	var aggs []AggSpec
	for _, kind := range []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		for col := 2; col <= 4; col++ {
			if kind == AggCount && col > 2 || (kind == AggSum || kind == AggAvg) && col == 4 {
				continue
			}
			aggs = append(aggs, AggSpec{Kind: kind, Col: col})
		}
	}
	groupBy := []int{0, 1}
	for _, tc := range cases {
		cols := tc.in.Schema.Project([]int{0, 1, 5, 6}).Cols
		for _, a := range aggs {
			cols = append(cols, types.Column{Name: string(a.Kind), Kind: tc.in.Schema.Cols[a.Col].Kind})
		}
		out := types.NewSchema(cols...)
		for _, size := range []int{1, 7, rel.DefaultBatchSize} {
			ta := NewTAggr(itertest.Poisoned(tc.in.Iter()), groupBy, 5, 6, aggs, out)
			raw := drainBy(t, ta, size)
			// Stretched so that a group's ends span more than 2^32 days,
			// the periods sort by the comparator, and the output stretches
			// alike.
			stretched := drainBy(t, NewTAggr(stretch(tc.in, 5, 6).Iter(), groupBy, 5, 6, aggs, out), size)
			if len(stretched) != len(raw) {
				t.Fatalf("%s (dst %d): %d rows, %d with periods stretched", tc.name, size, len(raw), len(stretched))
			}
			for i, r := range stretch(&rel.Relation{Tuples: raw}, 2, 3).Tuples {
				if !sameValues(r, stretched[i]) {
					t.Fatalf("%s (dst %d): row %d stretched = %v, with periods stretched %v", tc.name, size, i, r, stretched[i])
				}
			}
			got := coalesceDays(t, raw, len(groupBy))
			want := coalesceDays(t, taggrByDay(tc.in, groupBy, 5, 6, aggs), len(groupBy))
			if len(got) != len(want) {
				t.Fatalf("%s (dst %d): %d coalesced rows, want %d\ngot  %v\nwant %v", tc.name, size, len(got), len(want), got, want)
			}
			for i := range want {
				if !sameValues(got[i], want[i]) {
					t.Fatalf("%s (dst %d): row %d = %v, want %v", tc.name, size, i, got[i], want[i])
				}
			}
		}
	}
}

// dayRel builds (G string, K int, I int, F float, S string, T1, T2)
// rows from literals (nil is NULL), sorted on the grouping columns G, K
// and on T1; T1 and T2 are dates or integers.
func dayRel(dates bool, rows [][]any) *rel.Relation {
	tk := types.KindInt
	if dates {
		tk = types.KindDate
	}
	r := rel.New(types.NewSchema(
		types.Column{Name: "G", Kind: types.KindString}, types.Column{Name: "K", Kind: types.KindInt},
		types.Column{Name: "I", Kind: types.KindInt}, types.Column{Name: "F", Kind: types.KindFloat},
		types.Column{Name: "S", Kind: types.KindString},
		types.Column{Name: "T1", Kind: tk}, types.Column{Name: "T2", Kind: tk},
	))
	for _, lit := range rows {
		t := make(types.Tuple, len(lit))
		for i, x := range lit {
			switch x := x.(type) {
			case string:
				t[i] = types.Str(x)
			case float64:
				t[i] = types.Float(x)
			case int:
				t[i] = types.Int(int64(x))
				if i >= 5 && dates {
					t[i] = types.Date(int64(x))
				}
			}
		}
		r.Append(t)
	}
	r.SortBy("G", "K", "T1")
	return r
}

// randomDayRel makes n rows in groups over a span of days, with short
// periods that touch, nest and repeat, values that sum exactly, and
// NULLs.
func randomDayRel(rng *rand.Rand, dates bool, n, groups, span int) *rel.Relation {
	val := func(v any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return v
	}
	var rows [][]any
	for i := 0; i < n; i++ {
		s := rng.Intn(span)
		rows = append(rows, []any{
			fmt.Sprintf("g%d", rng.Intn(groups)), rng.Intn(min(groups, 2)),
			val(rng.Intn(21) - 10), val(float64(rng.Intn(41)-20) / 4), val(string(rune('a' + rng.Intn(6)))),
			s, s + 1 + rng.Intn(1+span/3),
		})
	}
	return dayRel(dates, rows)
}

// taggrByDay is the definition of temporal aggregation: per group (a
// run of rows with equal grouping values), per day from the group's
// first T1 to its last T2, the aggregates over the rows valid that day
// (T1 <= day < T2), as one-day rows; a day on which no row is valid has
// none.
func taggrByDay(in *rel.Relation, groupBy []int, t1, t2 int, aggs []AggSpec) []types.Tuple {
	var out []types.Tuple
	for lo := 0; lo < len(in.Tuples); {
		hi := lo + 1
		for hi < len(in.Tuples) && types.CompareTuples(in.Tuples[lo], in.Tuples[hi], groupBy, nil) == 0 {
			hi++
		}
		group := in.Tuples[lo:hi]
		first, last := group[0][t1].AsInt(), group[0][t2].AsInt()
		for _, r := range group {
			last = max(last, r[t2].AsInt())
		}
		for day := first; day < last; day++ {
			var valid []types.Tuple
			for _, r := range group {
				if r[t1].AsInt() <= day && day < r[t2].AsInt() {
					valid = append(valid, r)
				}
			}
			if len(valid) == 0 {
				continue
			}
			row := types.Tuple{}
			for _, g := range groupBy {
				row = append(row, group[0][g])
			}
			row = append(row, coerceTime(group[0][t1], day), coerceTime(group[0][t1], day+1))
			for _, a := range aggs {
				row = append(row, aggregate(a, valid))
			}
			out = append(out, row)
		}
		lo = hi
	}
	return out
}

// aggregate is the snapshot aggregate over one day's rows: COUNT counts
// rows, the others skip NULLs and are NULL over none; SUM of integers
// is an integer.
func aggregate(a AggSpec, rows []types.Tuple) types.Value {
	if a.Kind == AggCount {
		return types.Int(int64(len(rows)))
	}
	var vals []types.Value
	for _, r := range rows {
		if !r[a.Col].IsNull() {
			vals = append(vals, r[a.Col])
		}
	}
	if len(vals) == 0 {
		return types.Null
	}
	best, isum, fsum := vals[0], int64(0), 0.0
	for _, v := range vals {
		isum += v.AsInt()
		fsum += v.AsFloat()
		if c := types.Compare(v, best); a.Kind == AggMin && c < 0 || a.Kind == AggMax && c > 0 {
			best = v
		}
	}
	float := vals[0].Kind() == types.KindFloat
	switch {
	case a.Kind == AggAvg && float:
		return types.Float(fsum / float64(len(vals)))
	case a.Kind == AggAvg:
		return types.Float(float64(isum) / float64(len(vals)))
	case a.Kind == AggSum && float:
		return types.Float(fsum)
	case a.Kind == AggSum:
		return types.Int(isum)
	}
	return best
}

// coalesceDays merges each row into the one before when they belong to
// the same group, meet, and agree on every aggregate. It fails the test
// on rows of one group that are out of order or overlap.
func coalesceDays(t *testing.T, rows []types.Tuple, keys int) []types.Tuple {
	t.Helper()
	var out []types.Tuple
	for _, r := range rows {
		if len(out) > 0 {
			p := out[len(out)-1]
			if sameValues(p[:keys], r[:keys]) {
				if r[keys].AsInt() < p[keys+1].AsInt() {
					t.Fatalf("period %v overlaps or precedes the one before, %v", r, p)
				}
				if r[keys].AsInt() == p[keys+1].AsInt() && sameValues(p[keys+2:], r[keys+2:]) {
					p[keys+1] = r[keys+1]
					continue
				}
			}
		}
		out = append(out, append(types.Tuple{}, r...))
	}
	return out
}

// sameValues is value equality that also tells kinds apart, so an
// integer SUM that came out as a float, or an integer period end in
// a date column, differs.
func sameValues(a, b types.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// stretch returns a copy of r with the days of columns t1 and t2
// multiplied by 2^32, keeping their kind.
func stretch(r *rel.Relation, t1, t2 int) *rel.Relation {
	out := &rel.Relation{Schema: r.Schema}
	for _, row := range r.Tuples {
		row = append(types.Tuple{}, row...)
		for _, c := range []int{t1, t2} {
			row[c] = coerceTime(row[c], row[c].AsInt()<<32)
		}
		out.Append(row)
	}
	return out
}

// drainBy reads it to the end size rows at a time, keeping copies.
func drainBy(t *testing.T, it rel.Iterator, size int) []types.Tuple {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var mem types.Arena
	dst := make([]types.Tuple, size)
	for {
		n, err := it.NextBatch(dst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, r := range dst[:n] {
			mem.Keep(r)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return mem.Rows()
}
