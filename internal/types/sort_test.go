package types

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sortCase draws n rows (key0, key1, key2, seq); key k comes from
// gens[k], so few distinct values make for long runs of ties, and seq
// records the input position, which a stable sort must keep in order
// within a tie.
func sortCase(rng *rand.Rand, n int, gens [3]func(*rand.Rand) Value) []Tuple {
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{gens[0](rng), gens[1](rng), gens[2](rng), Int(int64(i))}
	}
	return rows
}

// stableReference is the result SortTuples promises: a stable sort by
// CompareTuples.
func stableReference(rows []Tuple, keys []int, desc []bool) []Tuple {
	want := slices.Clone(rows)
	sort.SliceStable(want, func(i, j int) bool { return CompareTuples(want[i], want[j], keys, desc) < 0 })
	return want
}

// checkOrder fails unless got and want hold the same input rows (by
// their last column, the input position) in the same order.
func checkOrder(t *testing.T, what string, got, want []Tuple) {
	t.Helper()
	for i := range want {
		if p, q := got[i][len(got[i])-1], want[i][len(want[i])-1]; !Equal(p, q) {
			t.Fatalf("%s: position %d holds input row %v, reference has %v", what, i, got[i], want[i])
		}
	}
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// sortGens are the key columns the reference tests draw from.
var sortGens = []struct {
	name string
	gen  func(*rand.Rand) Value
}{
	// Integers, dates and booleans share one axis.
	{"ints", func(r *rand.Rand) Value {
		switch r.Intn(3) {
		case 0:
			return Date(r.Int63n(5))
		case 1:
			return Bool(r.Intn(2) == 0)
		}
		return Int(r.Int63n(5) - 2)
	}},
	{"extremes", func(r *rand.Rand) Value { return Int(pick[int64](r, -1<<63, -1, 0, 1, 1<<63-1)) }},
	// Bytes 1..2 vary, the rest are constant: most passes are skipped.
	{"wide", func(r *rand.Rand) Value { return Int(1<<40 + r.Int63n(3)<<8 + r.Int63n(2)<<16) }},
	{"nullints", func(r *rand.Rand) Value {
		if r.Intn(3) == 0 {
			return Null
		}
		return Int(r.Int63n(4) - 1)
	}},
	{"floats", func(r *rand.Rand) Value {
		return Float(pick(r, math.Copysign(0, -1), 0, -1.5, 2.25, -1e300, 5e-324, -5e-324, math.Inf(1), math.Inf(-1)))
	}},
	{"nullfloats", func(r *rand.Rand) Value {
		if r.Intn(4) == 0 {
			return Null
		}
		return Float(pick(r, math.Copysign(0, -1), 0, 3.5, -3.5))
	}},
	{"nan", func(r *rand.Rand) Value { return Float(pick(r, math.NaN(), 0, 1, -1)) }},
	{"intfloat", func(r *rand.Rand) Value {
		if r.Intn(2) == 0 {
			return Float(float64(r.Intn(8)) / 2)
		}
		return Int(r.Int63n(4))
	}},
	// NULLs, numbers and digit strings: Compare's cross-kind rules.
	{"mixed", func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Float(float64(r.Intn(8)) / 2)
		case 1:
			return Null
		case 2:
			return Str(fmt.Sprint(r.Intn(4)))
		}
		return Int(r.Int63n(4))
	}},
	// "10" < "9" as strings, 9 < 10 as numbers.
	{"numstr", func(r *rand.Rand) Value {
		if r.Intn(2) == 0 {
			return Str(fmt.Sprint(r.Intn(12)))
		}
		return Int(r.Int63n(12))
	}},
	// A shared prefix longer than a word, then suffixes that tie in the
	// 7 bytes a word holds.
	{"prefix", func(r *rand.Rand) Value {
		return Str("a shared prefix/" + pick(r, "", "abcdefg", "abcdefgh", "abcdefgY", "abcdefghij", "abcdefg\x00", "b", "abcdefgh\x00"))
	}},
	{"names", func(r *rand.Rand) Value {
		return Str(pick(r, "Tom", "Jane", "Quin") + " " + pick(r, "Smith", "Smithers", "Jones", "Kim"))
	}},
	{"nul", func(r *rand.Rand) Value {
		return Str(pick(r, "", "\x00", "a", "a\x00", "a\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x00", "a\x00\x00\x00\x00\x00\x00\x00\x01", "\xff"))
	}},
	{"same", func(*rand.Rand) Value { return Str("every row holds this one string") }},
	{"nullstrs", func(r *rand.Rand) Value {
		if r.Intn(3) == 0 {
			return Null
		}
		return Str(pick(r, "", "x", "Employee 12", "Employee 123456789", "Employee 123456780"))
	}},
	{"nullempty", func(r *rand.Rand) Value { return pick(r, Null, Str("")) }},
	// No common prefix, and two values that tie in their words.
	{"tie7", func(r *rand.Rand) Value { return Str(pick(r, "xabcdefgh1", "xabcdefgh2", "yabcdefgh")) }},
	{"nulls", func(*rand.Rand) Value { return Null }},
}

func TestSortTuplesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	keys := []int{0, 1, 2}
	var descs [][]bool
	descs = append(descs, nil, []bool{true})
	for m := range 8 {
		descs = append(descs, []bool{m&1 != 0, m&2 != 0, m&4 != 0})
	}
	byName := map[string]int{}
	for i, g := range sortGens {
		byName[g.name] = i
	}
	var combos [][3]int
	for gi := range sortGens {
		// Key 0 is the generator under test; keys 1 and 2 are drawn from
		// a neighbour and from it, so it also sits behind another key.
		combos = append(combos, [3]int{gi, (gi + 1) % len(sortGens), gi})
	}
	// NULL against "" ahead of strings that tie in their words: only the
	// NULL rank keeps the first key's groups apart.
	combos = append(combos,
		[3]int{byName["nullempty"], byName["tie7"], byName["ints"]},
		[3]int{byName["nullempty"], byName["names"], byName["prefix"]},
		[3]int{byName["nullempty"], byName["same"], byName["prefix"]},
		[3]int{byName["nullstrs"], byName["nullints"], byName["names"]})
	for _, combo := range combos {
		g := [3]func(*rand.Rand) Value{sortGens[combo[0]].gen, sortGens[combo[1]].gen, sortGens[combo[2]].gen}
		// The stack path ends at smallSort key values: 21 rows of 3 keys.
		for _, n := range []int{0, 1, 2, 3, smallSort / 3, smallSort/3 + 1, 50, 1000} {
			for _, desc := range descs {
				rows := sortCase(rng, n, g)
				what := fmt.Sprintf("%s+%s+%s n=%d desc=%v",
					sortGens[combo[0]].name, sortGens[combo[1]].name, sortGens[combo[2]].name, n, desc)
				stable := stableReference(rows, keys, desc)
				SortTuples(rows, keys, desc)
				checkOrder(t, what, rows, stable)
			}
		}
	}
	// Row positions are two bytes wide up to 1<<16 rows, four beyond.
	for _, n := range []int{1 << 16, 1<<16 + 1} {
		gens := [3]func(*rand.Rand) Value{sortGens[byName["nullstrs"]].gen, sortGens[byName["ints"]].gen, sortGens[byName["names"]].gen}
		rows := sortCase(rng, n, gens)
		desc := []bool{false, true}
		stable := stableReference(rows, keys, desc)
		SortTuples(rows, keys, desc)
		checkOrder(t, fmt.Sprintf("n=%d", n), rows, stable)
	}
}

// TestSortTuplesFuncKeys: computed keys see each row, not its position.
func TestSortTuplesFuncKeys(t *testing.T) {
	rows := []Tuple{{Int(3)}, {Int(-1)}, {Int(2)}, {Int(-2)}}
	SortTuplesFunc(rows, 1, func(t Tuple, _ int) Value {
		return Int(t[0].AsInt() * t[0].AsInt())
	}, nil)
	if got := fmt.Sprint(rows); got != "[(-1) (2) (-2) (3)]" {
		t.Errorf("sorted by square: %s", got)
	}
}

// TestSortTuplesFuncCallsKeyOnce: key runs exactly once per key per
// row, whatever the input looks like — the engine collects evaluation
// errors through it.
func TestSortTuplesFuncCallsKeyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gen := func(name string) func(*rand.Rand) Value {
		for _, g := range sortGens {
			if g.name == name {
				return g.gen
			}
		}
		panic(name)
	}
	inputs := map[string]func(n int) []Tuple{
		"random": func(n int) []Tuple {
			return sortCase(rng, n, [3]func(*rand.Rand) Value{gen("ints"), gen("nullints"), gen("names")})
		},
		"sorted": func(n int) []Tuple {
			rows := make([]Tuple, n)
			for i := range rows {
				rows[i] = Tuple{Int(int64(i)), Str("x"), Float(0), Int(int64(i))}
			}
			return rows
		},
		"equal": func(n int) []Tuple {
			rows := make([]Tuple, n)
			for i := range rows {
				rows[i] = Tuple{Int(7), Str("same"), Null, Int(int64(i))}
			}
			return rows
		},
		"mixed": func(n int) []Tuple {
			return sortCase(rng, n, [3]func(*rand.Rand) Value{gen("numstr"), gen("nan"), gen("nullstrs")})
		},
	}
	for name, mk := range inputs {
		for _, n := range []int{0, 1, 2, smallSort / 3, smallSort/3 + 1, smallSort, smallSort + 1, 300} {
			for _, w := range []int{0, 1, 3} {
				rows := mk(n)
				calls := make([]int, n*w)
				SortTuplesFunc(rows, w, func(t Tuple, k int) Value {
					calls[int(t[3].AsInt())*w+k]++
					return t[k]
				}, nil)
				for i, c := range calls {
					if c != 1 {
						t.Fatalf("%s n=%d w=%d: key(row %d, %d) called %d times", name, n, w, i/w, i%w, c)
					}
				}
			}
		}
	}
}

// FuzzSortTuples checks SortTuples against a stable sort by
// CompareTuples, NaN included, on rows decoded from the input: the
// first byte gives each of three key columns a kind family, the second
// each key a direction, and every following byte is one value.
func FuzzSortTuples(f *testing.F) {
	f.Add([]byte{0x00, 0, 1, 2, 3, 1, 2, 3, 0, 0, 0})
	f.Add([]byte{0x1b, 5, 'a', 'b', 0, 9, 200, 'a', 'b', 0, 17, 255, 0})
	f.Add([]byte(strings.Repeat("\x2d\x05\x80\x41\x00\x10\x11", 20)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		head, dirs, body := data[0], data[1], data[2:]
		var fams [3]byte
		var desc []bool
		for k := range fams {
			fams[k] = head >> (2 * k) & 3
			desc = append(desc, dirs>>k&1 != 0)
		}
		// Families: 0 integers and dates, 1 floats, 2 strings, 3 ints
		// against floats; byte values under 16 are NULL in every family.
		value := func(fam, b byte, i int) Value {
			if b < 16 {
				return Null
			}
			switch fam {
			case 0:
				if b&1 != 0 {
					return Date(int64(b) - 128)
				}
				return Int(int64(b) - 128)
			case 1:
				switch b {
				case 16:
					return Float(math.Copysign(0, -1))
				case 17:
					return Float(math.NaN())
				case 18:
					return Float(math.Float64frombits(0xfff0000000000001)) // a negative NaN
				}
				return Float((float64(b) - 128) / 8)
			case 2:
				// Long shared prefixes, suffixes that tie in the first 7
				// bytes, and embedded NULs.
				return Str("prefix shared by all/" + strings.Repeat("\x00", int(b&3)) + strings.Repeat(string(rune('a'+b>>6)), int(b>>2&15)))
			}
			if i%2 == 0 {
				return Float(float64(b) / 4)
			}
			return Int(int64(b) / 4)
		}
		var rows []Tuple
		for i := 0; i+3 <= len(body); i += 3 {
			rows = append(rows, Tuple{
				value(fams[0], body[i], i), value(fams[1], body[i+1], i), value(fams[2], body[i+2], i),
				Int(int64(len(rows))),
			})
		}
		keys := []int{0, 1, 2}
		stable := stableReference(rows, keys, desc)
		SortTuples(rows, keys, desc)
		checkOrder(t, "stable sort", rows, stable)
	})
}

func BenchmarkSortTuples(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(n int, key func(i int) Value) []Tuple {
		rows := make([]Tuple, n)
		for i := range rows {
			rows[i] = Tuple{key(rng.Intn(2000)), Date(rng.Int63n(4000)), Str("payload")}
		}
		return rows
	}
	first := []string{"Tom", "Jane", "Ann", "Bob", "Quin", "Ray", "Sue", "Zoe"}
	last := []string{"Smith", "Jones", "Brown", "Nguyen", "Kumar", "Ivanov", "Muller"}
	for _, bc := range []struct {
		name string
		rows []Tuple
	}{
		{"intkeys", mk(12000, func(i int) Value { return Int(int64(i)) })},
		{"mixedkeys", mk(12000, func(i int) Value { return Str(fmt.Sprintf("P%04d", i)) })},
		// coalesce's key: "First Last" names ahead of a date.
		{"uisnames", mk(12000, func(i int) Value { return Str(first[i%len(first)] + " " + last[i/len(first)%len(last)]) })},
		// The small-sort path (an ORDER BY of a few rows): many sorts of 8 rows.
		{"groups8", mk(8, func(i int) Value { return Int(int64(i)) })},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			work := make([]Tuple, len(bc.rows))
			for i := 0; i < b.N; i++ {
				copy(work, bc.rows)
				SortTuples(work, []int{0, 1}, nil)
			}
			b.ReportMetric(float64(len(work))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
