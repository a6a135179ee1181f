package xxl

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/rel/itertest"
	"tango/internal/types"
)

// TestTJoinMatchesDefinition compares TJOIN^M with what a temporal join
// means: on every day, the join of the inputs' timeslices on that day.
// Output rows are timesliced per day and compared, as multisets, with a
// nested-loop join of the inputs' timeslices; every output period must
// be non-empty, since a row valid on no day is not in the result. The
// inputs (dayRel rows joined on G and K) have empty, single-day,
// touching, nested and identical periods and NULL payloads, and are
// read through itertest.Poisoned.
func TestTJoinMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(4040))
	type pair struct {
		name        string
		left, right *rel.Relation
	}
	cases := []pair{{"shapes",
		dayRel(false, [][]any{
			{"touch", 1, 1, 1.0, "l", 1, 5}, {"touch", 1, 2, nil, "l", 9, 12},
			{"nested", 1, 3, 2.0, nil, 1, 10},
			{"same", 1, nil, nil, nil, 2, 7}, {"same", 1, 4, 0.5, "x", 2, 7},
			{"single", 1, 5, 1.5, "s", 4, 5},
			{"empty", 1, 6, 6.0, "e", 5, 5}, {"empty", 1, 7, 7.0, "f", 1, 10},
			{"left-only", 1, 8, 8.0, "o", 0, 30},
		}),
		dayRel(false, [][]any{
			{"touch", 1, 10, 1.0, "r", 5, 9}, {"touch", 1, nil, 2.0, "r", 12, 20},
			{"nested", 1, 11, nil, "n", 3, 6}, {"nested", 1, 12, 3.0, "n", 9, 10},
			{"same", 1, 13, 1.0, nil, 2, 7},
			{"single", 1, 14, 2.5, "t", 4, 5}, {"single", 1, 15, 2.5, "u", 3, 4},
			{"empty", 1, 16, 1.0, "g", 5, 5}, {"empty", 1, 17, 1.0, "h", 1, 10},
			{"right-only", 1, 18, 8.0, "o", 0, 30},
		}),
	}}
	for _, dates := range []bool{false, true} {
		for trial := 0; trial < 4; trial++ {
			cases = append(cases, pair{fmt.Sprintf("random/dates=%v/%d", dates, trial),
				randomDayRel(rng, dates, 1+trial*30, 2+trial, 5+trial*5),
				randomDayRel(rng, dates, 1+trial*25, 2+trial, 5+trial*5)})
		}
		// Groups of about 50 rows a side: the output spans several batches.
		cases = append(cases, pair{fmt.Sprintf("batches/dates=%v", dates),
			randomDayRel(rng, dates, 200, 4, 200), randomDayRel(rng, dates, 200, 4, 200)})
	}
	keys := []int{0, 1}
	for _, tc := range cases {
		want := map[string]int{}
		for _, l := range tc.left.Tuples {
			for _, r := range tc.right.Tuples {
				if !sameValues(l[:2], r[:2]) {
					continue
				}
				countSlices(want, append(append(types.Tuple{}, l[:5]...), r[:5]...),
					max(l[5].AsInt(), r[5].AsInt()), min(l[6].AsInt(), r[6].AsInt()))
			}
		}
		for _, size := range []int{1, 7, rel.DefaultBatchSize} {
			tj := NewTJoin(itertest.Poisoned(tc.left.Iter()), itertest.Poisoned(tc.right.Iter()), keys, keys, 5, 6, 5, 6)
			got := map[string]int{}
			for _, o := range drainBy(t, tj, size) {
				if o[5].AsInt() >= o[6].AsInt() {
					t.Fatalf("%s (dst %d): row %v has an empty period", tc.name, size, o)
				}
				if o[5].Kind() != tc.left.Tuples[0][5].Kind() || o[6].Kind() != o[5].Kind() {
					t.Fatalf("%s (dst %d): row %v changed the period's kind", tc.name, size, o)
				}
				countSlices(got, append(append(types.Tuple{}, o[:5]...), o[7:]...), o[5].AsInt(), o[6].AsInt())
			}
			compareSlices(t, fmt.Sprintf("%s (dst %d)", tc.name, size), got, want)
		}
	}
}

// TestCoalesceMatchesDefinition compares COALESCE^M with what
// coalescing means: the output is valid for a value on exactly the days
// some input row with that value is, and no two of its periods for one
// value meet or overlap (each would have been merged). The inputs are
// dayRel rows over few distinct values, sorted on every non-time column
// and T1 as COALESCE^M requires, with empty, single-day, touching,
// nested and identical periods and NULL payloads, read through
// itertest.Poisoned.
func TestCoalesceMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(4141))
	type input struct {
		name string
		in   *rel.Relation
	}
	cases := []input{{"shapes", coalesceOrder(dayRel(false, [][]any{
		{"touch", 1, 1, 1.0, "a", 1, 5}, {"touch", 1, 1, 1.0, "a", 5, 9}, {"touch", 1, 2, 1.0, "a", 9, 12},
		{"nested", 1, 3, nil, "n", 1, 10}, {"nested", 1, 3, nil, "n", 3, 6},
		{"same", 1, nil, nil, nil, 2, 7}, {"same", 1, nil, nil, nil, 2, 7}, {"same", 1, nil, nil, nil, 7, 8},
		{"single", 1, 5, 1.5, "s", 4, 5}, {"single", 1, 5, 1.5, "s", 6, 7},
		{"empty", 1, 6, 6.0, "e", 3, 3}, {"empty", 1, 6, 6.0, "e", 3, 8}, {"empty", 1, 7, 7.0, "f", 8, 8},
		{"overlap", 1, 8, 8.0, "o", 0, 4}, {"overlap", 1, 8, 8.0, "o", 2, 6}, {"overlap", 1, 8, 8.0, "o", 6, 7},
	}))}}
	for _, dates := range []bool{false, true} {
		for trial := 0; trial < 4; trial++ {
			cases = append(cases, input{fmt.Sprintf("random/dates=%v/%d", dates, trial),
				fewValuesRel(rng, dates, 1+trial*60, 5+trial*8)})
		}
		// 700 rows: the output spans several batches.
		cases = append(cases, input{fmt.Sprintf("batches/dates=%v", dates), fewValuesRel(rng, dates, 700, 400)})
	}
	for _, tc := range cases {
		want := map[string]int{}
		for _, r := range tc.in.Tuples {
			countSlices(want, r[:5], r[5].AsInt(), r[6].AsInt())
		}
		for k := range want {
			want[k] = 1 // coalescing keeps a value once a day
		}
		for _, size := range []int{1, 7, rel.DefaultBatchSize} {
			out := drainBy(t, NewCoalesce(itertest.Poisoned(tc.in.Iter()), 5, 6), size)
			got := map[string]int{}
			periods := map[string][]types.Period{}
			for _, o := range out {
				if o[5].Kind() != tc.in.Tuples[0][5].Kind() || o[6].Kind() != o[5].Kind() {
					t.Fatalf("%s (dst %d): row %v changed the period's kind", tc.name, size, o)
				}
				v := valueKey(o[:5])
				periods[v] = append(periods[v], types.Period{Start: o[5].AsInt(), End: o[6].AsInt()})
				countSlices(got, o[:5], o[5].AsInt(), o[6].AsInt())
			}
			compareSlices(t, fmt.Sprintf("%s (dst %d)", tc.name, size), got, want)
			for v, ps := range periods {
				sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
				for i := 1; i < len(ps); i++ {
					if ps[i].Start <= ps[i-1].End {
						t.Fatalf("%s (dst %d): value %s has periods %v and %v that meet or overlap", tc.name, size, v, ps[i-1], ps[i])
					}
				}
			}
		}
	}
}

// fewValuesRel makes n dayRel rows over a handful of values each
// column, some NULL, with short periods in a span of days, so rows of
// one value touch, nest and repeat; sorted for COALESCE^M.
func fewValuesRel(rng *rand.Rand, dates bool, n, span int) *rel.Relation {
	pick := func(vs ...any) any { return vs[rng.Intn(len(vs))] }
	var rows [][]any
	for i := 0; i < n; i++ {
		s := rng.Intn(span)
		rows = append(rows, []any{pick("g0", "g1"), rng.Intn(2), pick(nil, 1, 2), pick(nil, 0.5), pick(nil, "a"),
			s, s + rng.Intn(6)})
	}
	return coalesceOrder(dayRel(dates, rows))
}

// coalesceOrder sorts a dayRel on every non-time column, then T1.
func coalesceOrder(r *rel.Relation) *rel.Relation {
	r.SortBy("G", "K", "I", "F", "S", "T1")
	return r
}

// countSlices counts the timeslices of a row valid over [t1, t2) whose
// non-time values are vals.
func countSlices(into map[string]int, vals types.Tuple, t1, t2 int64) {
	k := valueKey(vals) + "@"
	for day := t1; day < t2; day++ {
		into[k+strconv.FormatInt(day, 10)]++
	}
}

// valueKey renders vals, telling kinds apart.
func valueKey(vals types.Tuple) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(strconv.Itoa(int(v.Kind())))
		b.WriteByte(':')
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}

// compareSlices fails on any timeslice the two multisets count apart.
func compareSlices(t *testing.T, name string, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: timeslice %s occurs %d times, want %d", name, k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Fatalf("%s: timeslice %s occurs %d times, want none", name, k, n)
		}
	}
}
