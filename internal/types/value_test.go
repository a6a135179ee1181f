package types

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{Int(42), KindInt, "42"},
		{Float(2.5), KindFloat, "2.5"},
		{Str("abc"), KindString, "abc"},
		{Bool(true), KindBool, "TRUE"},
		{Bool(false), KindBool, "FALSE"},
		{DateYMD(1997, time.February, 1), KindDate, "1997-02-01"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	// Day numbers must match Unix epoch day arithmetic.
	if d := DayOf(1970, time.January, 1); d != 0 {
		t.Fatalf("DayOf(1970-01-01) = %d, want 0", d)
	}
	if d := DayOf(1970, time.January, 8); d != 7 {
		t.Fatalf("DayOf(1970-01-08) = %d, want 7", d)
	}
	// The paper's example range: 1995-01-01 .. 2000-01-01 is 1826 days.
	span := DayOf(2000, time.January, 1) - DayOf(1995, time.January, 1)
	if span != 1826 {
		t.Fatalf("1995..2000 span = %d days, want 1826", span)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(2.0), 0},
		{Str("a"), Str("b"), -1},
		{Null, Int(0), -1},
		{Int(0), Null, 1},
		{Null, Null, 0},
		{Bool(false), Bool(true), -1},
		{Date(10), Date(20), -1},
		{Date(10), Int(10), 0},
		{Str("2"), Int(2), 1},
		{Str("10"), Int(9), 1},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Float(math.Inf(1)), 1},
		{Int(1 << 62), Float(math.NaN()), -1},
		{Float(math.Copysign(0, -1)), Int(0), 0},
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Float(1 << 63), Int(math.MaxInt64), 1},
		{Float(-1 << 63), Int(math.MinInt64), 0},
		{Float(math.Inf(-1)), Int(math.MinInt64), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareAntisymmetric: Compare is antisymmetric over random
// integers, and antisymmetric and transitive over every triple of
// equalityGrid.
func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, a := range equalityGrid {
		for _, b := range equalityGrid {
			for _, c := range equalityGrid {
				if err := checkOrder3(a, b, c); err != "" {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkOrder3 returns what breaks antisymmetry or transitivity of
// Compare over a, b and c, in that order, or "".
func checkOrder3(a, b, c Value) string {
	ab, ba, bc, ac := Compare(a, b), Compare(b, a), Compare(b, c), Compare(a, c)
	switch {
	case ab != -ba:
		return fmt.Sprintf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
	case ab <= 0 && bc <= 0 && (ac > 0 || ac == 0 && (ab < 0 || bc < 0)):
		return fmt.Sprintf("%v <= %v <= %v (%d, %d) but Compare(%v, %v) = %d", a, b, c, ab, bc, a, c, ac)
	}
	return ""
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(2), Float(2.0)},
		{Int(7), Date(7)},
		{Bool(true), Int(1)},
		{Str("x"), Str("x")},
		{Null, Null},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("expected %v == %v", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash(%v) != Hash(%v) despite equality", p[0], p[1])
		}
	}
}

// TestHashAgreesWithEqual: values Equal calls equal hash alike, over
// the grid TestTupleKeyMatchesEqual keys (-0 and +0 included).
func TestHashAgreesWithEqual(t *testing.T) {
	for _, a := range equalityGrid {
		for _, b := range equalityGrid {
			if Equal(a, b) && a.Hash() != b.Hash() {
				t.Errorf("Hash(%v) = %#x, Hash(%v) = %#x, but the values are equal", a, a.Hash(), b, b.Hash())
			}
		}
	}
}

func TestHashDistribution(t *testing.T) {
	// Not a strict guarantee, but equal values must collide and a
	// spread of values should not all collide.
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[Int(int64(i)).Hash()] = true
	}
	if len(seen) < 990 {
		t.Errorf("too many hash collisions: %d distinct of 1000", len(seen))
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		got, want Value
	}{
		{Add(Int(2), Int(3)), Int(5)},
		{Add(Int(2), Float(0.5)), Float(2.5)},
		{Add(Str("a"), Str("b")), Str("ab")},
		{Add(Date(10), Int(5)), Date(15)},
		{Sub(Int(5), Int(3)), Int(2)},
		{Sub(Date(20), Date(5)), Int(15)},
		{Sub(Date(20), Int(5)), Date(15)},
		{Mul(Int(4), Int(3)), Int(12)},
		{Div(Int(7), Int(2)), Int(3)},
		{Div(Float(7), Int(2)), Float(3.5)},
		{Greatest(Int(3), Int(9)), Int(9)},
		{Least(Int(3), Int(9)), Int(3)},
	}
	for i, c := range cases {
		if !Equal(c.got, c.want) || c.got.Kind() != c.want.Kind() {
			t.Errorf("case %d: got %v (%v), want %v (%v)", i, c.got, c.got.Kind(), c.want, c.want.Kind())
		}
	}
}

func TestNullPropagation(t *testing.T) {
	ops := []func(a, b Value) Value{Add, Sub, Mul, Div, Greatest, Least}
	for i, op := range ops {
		if !op(Null, Int(1)).IsNull() || !op(Int(1), Null).IsNull() {
			t.Errorf("op %d does not propagate NULL", i)
		}
	}
	if !Div(Int(1), Int(0)).IsNull() {
		t.Error("integer division by zero should be NULL")
	}
	if !Div(Float(1), Float(0)).IsNull() {
		t.Error("float division by zero should be NULL")
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := Str("O'Hara").SQL(); got != "'O''Hara'" {
		t.Errorf("SQL() = %q", got)
	}
	if got := DateYMD(1983, time.January, 1).SQL(); got != "DATE '1983-01-01'" {
		t.Errorf("SQL() = %q", got)
	}
	if got := Int(5).SQL(); got != "5" {
		t.Errorf("SQL() = %q", got)
	}
}

func TestGreatestLeastAgainstCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := Int(rng.Int63n(100)), Int(rng.Int63n(100))
		g, l := Greatest(a, b), Least(a, b)
		if Compare(g, l) < 0 {
			t.Fatalf("Greatest(%v,%v)=%v < Least=%v", a, b, g, l)
		}
		if !Equal(Add(g, l), Add(a, b)) {
			t.Fatalf("Greatest+Least should preserve sum for ints")
		}
	}
}

// orderValue decodes one value for FuzzValueOrder: k picks NULL, an
// integer near 0, ±2^53 or ±2^63, a date, a boolean, a float (x's
// bits, so every NaN payload, or for x < 16 one of ±0, ±Inf, ±2^53,
// 2^53+2, ±2^63, NaN and a few small numbers) or a string that reads
// as a number.
func orderValue(k uint8, x uint64) Value {
	switch k % 6 {
	case 0:
		return Null
	case 1:
		base := []int64{0, 1 << 53, -1 << 53, math.MaxInt64, math.MinInt64}[x%5]
		return Int(base + int64(int8(x>>8)))
	case 2:
		return Date(int64(int16(x)))
	case 3:
		return Bool(x&1 != 0)
	case 4:
		if x < 16 {
			return Float([]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1 << 53, -1 << 53,
				1<<53 + 2, 1 << 63, -1 << 63, math.NaN(), 1, 1.5, 2, 5, 6, -2}[x])
		}
		return Float(math.Float64frombits(x))
	}
	return Str([]string{"2", "2.0", "10", "9", "NaN", "-0", "", "a"}[x%8])
}

// FuzzValueOrder holds Compare to a total order over three decoded
// values, and every other equality to it: Compare is antisymmetric and
// transitive, Equal holds exactly when Tuple.Keys are equal, Equal
// values hash alike, and a one-column KeyTable gives Equal values, and
// only those, one id.
func FuzzValueOrder(f *testing.F) {
	f.Add(uint8(4), math.Float64bits(math.NaN()), uint8(4), math.Float64bits(5), uint8(4), math.Float64bits(6))
	f.Add(uint8(5), uint64(0), uint8(1), uint64(2<<8), uint8(4), math.Float64bits(2))
	f.Add(uint8(1), uint64(1|1<<8), uint8(4), uint64(4), uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, k1 uint8, x1 uint64, k2 uint8, x2 uint64, k3 uint8, x3 uint64) {
		vals := []Value{orderValue(k1, x1), orderValue(k2, x2), orderValue(k3, x3)}
		var tab KeyTable
		tab.Reset(1)
		defer tab.Free()
		ids := make([]int, len(vals))
		for i, v := range vals {
			ids[i], _ = tab.Insert(Tuple{v})
		}
		for i, a := range vals {
			for j, b := range vals {
				for _, c := range vals {
					if err := checkOrder3(a, b, c); err != "" {
						t.Fatal(err)
					}
				}
				eq := Equal(a, b)
				if keys := (Tuple{a}).Key() == (Tuple{b}).Key(); keys != eq {
					t.Fatalf("%v, %v: Equal = %v, keys equal = %v", a, b, eq, keys)
				}
				if eq && a.Hash() != b.Hash() {
					t.Fatalf("%v = %v, but they hash to %#x and %#x", a, b, a.Hash(), b.Hash())
				}
				if (ids[i] == ids[j]) != eq {
					t.Fatalf("%v, %v: Equal = %v, KeyTable ids %d and %d", a, b, eq, ids[i], ids[j])
				}
			}
		}
	})
}
