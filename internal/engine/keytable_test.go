package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tango/internal/rel"
	"tango/internal/types"
)

// keyedDB holds T (K, S, F, V) with n seeded rows: Zipf-skewed integer
// keys K, a few strings S (half of them digits), floats F that are
// often ±0 or NaN, and NULL in each of K, S and F now and then.
func keyedDB(tb testing.TB, n int, seed int64) (*DB, []types.Tuple) {
	tb.Helper()
	db := Open(Config{})
	if _, err := db.Exec("CREATE TABLE T (K INTEGER, S VARCHAR, F FLOAT, V INTEGER)"); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(n/4+1))
	orNull := func(v types.Value) types.Value {
		if rng.Intn(12) == 0 {
			return types.Null
		}
		return v
	}
	rows := make([]types.Tuple, n)
	for i := range rows {
		f := []float64{0, math.Copysign(0, -1), 1.5, 2, math.NaN()}[rng.Intn(5)]
		rows[i] = types.Tuple{
			orNull(types.Int(int64(zipf.Uint64()))), orNull(types.Str(fmt.Sprint([]string{"s", ""}[rng.Intn(2)], rng.Intn(7)))),
			orNull(types.Float(f)), types.Int(rng.Int63n(100)),
		}
	}
	if err := db.BulkLoad("T", rows); err != nil {
		tb.Fatal(err)
	}
	return db, rows
}

// firstSeen groups rows by the Tuple.Key of key(row), in first-seen
// order.
func firstSeen(rows []types.Tuple, key func(types.Tuple) types.Tuple) (order []types.Tuple, groups map[string][]types.Tuple) {
	groups = map[string][]types.Tuple{}
	for _, r := range rows {
		k := key(r)
		if _, ok := groups[k.Key()]; !ok {
			order = append(order, k)
		}
		groups[k.Key()] = append(groups[k.Key()], r)
	}
	return order, groups
}

// sameRows fails unless got holds want's rows in want's order, each
// value keying alike (so -0 matches 0).
func sameRows(t *testing.T, what string, got *rel.Relation, want []types.Tuple) {
	t.Helper()
	if len(got.Tuples) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got.Tuples), len(want))
	}
	for i, w := range want {
		if got.Tuples[i].Key() != w.Key() {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got.Tuples[i], w)
		}
	}
}

// TestHashOperatorsMatchReference: over seeded tables of one batch and
// of many, with NULL keys, skewed duplicate keys, strings, ±0 and NaN
// floats, the hash join returns a Tuple.Key-matched reference's rows,
// in probe order with each probe row's matches in build order, and the
// sort-merge, nested-loop and index nested-loop joins return its rows;
// a string key never matches an integer one. GROUP BY with
// COUNT(DISTINCT …), SELECT DISTINCT and UNION return the groups and
// rows a Tuple.Key-grouped reference does, in first-seen order.
func TestHashOperatorsMatchReference(t *testing.T) {
	for _, n := range []int{60, 1200} {
		db, rows := keyedDB(t, n, int64(n))
		cols := func(idx ...int) func(types.Tuple) types.Tuple {
			return func(r types.Tuple) types.Tuple {
				k := make(types.Tuple, len(idx))
				for i, c := range idx {
					k[i] = r[c]
				}
				return k
			}
		}
		joins := []struct {
			where string
			a, b  []int // the key columns of A and of B
		}{{"A.K = B.K", []int{0}, []int{0}}, {"A.S = B.S AND A.F = B.F", []int{1, 2}, []int{1, 2}}, {"A.S = B.K", []int{1}, []int{0}}}
		hashed := make([]*rel.Relation, len(joins))
		for i, on := range joins {
			sql := "SELECT A.K, A.S, A.V, B.V, B.F FROM T A, T B WHERE " + on.where
			var want []types.Tuple
			_, build := firstSeen(rows, cols(on.b...))
			for _, a := range rows {
				if k := cols(on.a...)(a); !hasNull(k) {
					for _, b := range build[k.Key()] {
						want = append(want, types.Tuple{a[0], a[1], a[3], b[3], b[2]})
					}
				}
			}
			hashed[i] = queryAll(t, db, sql)
			sameRows(t, fmt.Sprintf("n=%d hash join on %s", n, on.where), hashed[i], want)
		}
		// Every other method returns the hash join's rows: the merge
		// join, the nested loop, and, once K and F are indexed, the
		// index nested loop.
		for _, step := range []string{"USE_MERGE", "USE_NL", "CREATE INDEX tk ON T (K)", "CREATE INDEX tf ON T (F)", "USE_NL"} {
			if strings.HasPrefix(step, "CREATE") {
				if _, err := db.Exec(step); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for i, on := range joins {
				sql := "SELECT /*+ " + step + " */ A.K, A.S, A.V, B.V, B.F FROM T A, T B WHERE " + on.where
				if got := queryAll(t, db, sql); !rel.EqualAsMultisets(hashed[i], got) {
					t.Fatalf("n=%d on %s: hash join returns %d rows, %s %d", n, on.where, hashed[i].Cardinality(), step, got.Cardinality())
				}
			}
		}

		order, groups := firstSeen(rows, cols(0, 1))
		var want []types.Tuple
		for _, k := range order {
			g := groups[k.Key()]
			distinct, _ := firstSeen(g, cols(2))
			nonNull := 0
			for _, d := range distinct {
				if !d[0].IsNull() {
					nonNull++
				}
			}
			sum, minS := types.Null, types.Null
			for _, r := range g {
				if sum.IsNull() {
					sum = r[3]
				} else {
					sum = types.Add(sum, r[3])
				}
				if !r[1].IsNull() && (minS.IsNull() || types.Less(r[1], minS)) {
					minS = r[1]
				}
			}
			want = append(want, types.Tuple{k[0], k[1], types.Int(int64(len(g))), types.Int(int64(nonNull)), sum, minS})
		}
		sameRows(t, fmt.Sprintf("n=%d GROUP BY", n), queryAll(t, db,
			"SELECT K, S, COUNT(*), COUNT(DISTINCT F), SUM(V), MIN(S) FROM T GROUP BY K, S"), want)

		distinct, _ := firstSeen(rows, cols(1, 2))
		sameRows(t, fmt.Sprintf("n=%d SELECT DISTINCT", n), queryAll(t, db, "SELECT DISTINCT S, F FROM T"), distinct)

		var both []types.Tuple
		for _, lo := range []bool{true, false} {
			for _, r := range rows {
				if v := r[3].AsInt(); lo && v < 50 || !lo && v >= 30 {
					both = append(both, r)
				}
			}
		}
		union, _ := firstSeen(both, cols(0, 2))
		sameRows(t, fmt.Sprintf("n=%d UNION", n), queryAll(t, db,
			"SELECT K, F FROM T WHERE V < 50 UNION SELECT K, F FROM T WHERE V >= 30"), union)
	}
}

func hasNull(k types.Tuple) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}
