package types

import (
	"math"
	"testing"
)

func testSchema() Schema {
	return NewSchema(
		Column{"PosID", KindInt},
		Column{"EmpName", KindString},
		Column{"T1", KindDate},
		Column{"T2", KindDate},
	)
}

func TestColumnIndex(t *testing.T) {
	s := testSchema()
	if i := s.ColumnIndex("PosID"); i != 0 {
		t.Errorf("PosID index = %d", i)
	}
	if i := s.ColumnIndex("posid"); i != 0 {
		t.Errorf("case-insensitive lookup failed: %d", i)
	}
	if i := s.ColumnIndex("Nope"); i != -1 {
		t.Errorf("missing column index = %d, want -1", i)
	}
}

func TestQualifiedLookup(t *testing.T) {
	s := testSchema().Qualify("A")
	if s.Cols[0].Name != "A.PosID" {
		t.Fatalf("qualify: %v", s.Cols[0].Name)
	}
	// Unqualified lookup should still find the qualified column.
	if i := s.ColumnIndex("PosID"); i != 0 {
		t.Errorf("unqualified lookup in qualified schema = %d", i)
	}
	if i := s.ColumnIndex("A.PosID"); i != 0 {
		t.Errorf("qualified lookup = %d", i)
	}
	if i := s.ColumnIndex("B.PosID"); i != -1 {
		t.Errorf("wrong qualifier should miss, got %d", i)
	}
	u := s.Unqualified()
	if u.Cols[0].Name != "PosID" {
		t.Errorf("Unqualified: %v", u.Cols[0].Name)
	}
}

func TestProjectConcat(t *testing.T) {
	s := testSchema()
	p := s.Project([]int{2, 0})
	if p.Len() != 2 || p.Cols[0].Name != "T1" || p.Cols[1].Name != "PosID" {
		t.Fatalf("Project: %v", p)
	}
	c := s.Concat(p)
	if c.Len() != 6 {
		t.Fatalf("Concat len = %d", c.Len())
	}
}

func TestSchemaEqual(t *testing.T) {
	a := testSchema()
	b := testSchema()
	if !a.Equal(b) {
		t.Error("identical schemas not equal")
	}
	b.Cols[0].Name = "posid"
	if !a.Equal(b) {
		t.Error("case-insensitive equality failed")
	}
	b.Cols[0].Kind = KindString
	if a.Equal(b) {
		t.Error("kind mismatch should not be equal")
	}
}

func TestCompareTuples(t *testing.T) {
	a := Tuple{Int(1), Str("x"), Int(5)}
	b := Tuple{Int(1), Str("y"), Int(3)}
	if c := CompareTuples(a, b, []int{0}, nil); c != 0 {
		t.Errorf("equal on key 0: %d", c)
	}
	if c := CompareTuples(a, b, []int{1}, nil); c != -1 {
		t.Errorf("key 1: %d", c)
	}
	if c := CompareTuples(a, b, []int{2}, nil); c != 1 {
		t.Errorf("key 2: %d", c)
	}
	if c := CompareTuples(a, b, []int{2}, []bool{true}); c != -1 {
		t.Errorf("descending key 2: %d", c)
	}
	if c := CompareTuples(a, b, []int{0, 1}, nil); c != -1 {
		t.Errorf("composite key: %d", c)
	}
	if !TupleEqualOn(a, b, []int{0}) || TupleEqualOn(a, b, []int{1}) {
		t.Error("TupleEqualOn wrong")
	}
}

func TestTupleClone(t *testing.T) {
	a := Tuple{Int(1), Str("x")}
	b := a.Clone()
	b[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPeriodOps(t *testing.T) {
	p := Period{2, 20}
	q := Period{5, 25}
	if !p.Overlaps(q) || !q.Overlaps(p) {
		t.Error("overlap expected")
	}
	r, ok := p.Intersect(q)
	if !ok || r != (Period{5, 20}) {
		t.Errorf("intersect = %v, %v", r, ok)
	}
	if p.Overlaps(Period{20, 30}) {
		t.Error("closed-open adjacency must not overlap")
	}
	if !p.Meets(Period{20, 30}) {
		t.Error("Meets expected")
	}
	if !p.Contains(2) || p.Contains(20) || !p.Contains(19) {
		t.Error("Contains closed-open semantics wrong")
	}
	if p.Duration() != 18 {
		t.Errorf("Duration = %d", p.Duration())
	}
	if (Period{5, 5}).Valid() || (Period{6, 5}).Valid() {
		t.Error("degenerate periods must be invalid")
	}
	if m := p.Merge(q); m != (Period{2, 25}) {
		t.Errorf("Merge = %v", m)
	}
}

func TestPeriodIntersectCommutes(t *testing.T) {
	for s1 := int64(0); s1 < 6; s1++ {
		for e1 := s1 + 1; e1 < 8; e1++ {
			for s2 := int64(0); s2 < 6; s2++ {
				for e2 := s2 + 1; e2 < 8; e2++ {
					p, q := Period{s1, e1}, Period{s2, e2}
					r1, ok1 := p.Intersect(q)
					r2, ok2 := q.Intersect(p)
					if ok1 != ok2 || (ok1 && r1 != r2) {
						t.Fatalf("intersect not commutative: %v %v", p, q)
					}
					if ok1 != p.Overlaps(q) {
						t.Fatalf("Overlaps inconsistent with Intersect: %v %v", p, q)
					}
				}
			}
		}
	}
}

// equalityGrid holds values that Equal relates across kinds (2, 2.0 and
// day 2), that tell apart only in their low bits or last bytes, NULL,
// both zeros (Float(-0.0) is a constant expression, hence +0), a string
// that reads as a number, two NaNs of different payloads, and integers
// past 2^53 beside the float they round to.
var equalityGrid = []Value{
	Null, Int(2), Float(2), Date(2), Int(3), Float(2.5), Float(-0.0), Int(0),
	Int(1 << 60), Int(1<<60 + 1), Str("N"), Str(""), Str("a"), Str("a\x00"), Str("ab"),
	Float(math.Copysign(0, -1)), Str("2"), Float(math.NaN()), Float(math.Float64frombits(0xfff0000000000001)),
	Int(1 << 53), Int(1<<53 + 1), Float(1 << 53),
}

// TestTupleKeyMatchesEqual: two tuples get the same key exactly when
// their values are pairwise Equal, across every pairing of ints,
// floats, dates, strings and NULL — Int(2), Float(2) and Date(2) key
// alike, as do both NaNs, NULL never keys as Str("N"), and a string's
// length keeps a separator byte inside it from shifting the next
// column.

func TestTupleKeyMatchesEqual(t *testing.T) {
	vals := equalityGrid
	var tuples []Tuple
	for _, a := range vals {
		tuples = append(tuples, Tuple{a})
		for _, b := range vals {
			tuples = append(tuples, Tuple{a, b})
		}
	}
	for _, x := range tuples {
		for _, y := range tuples {
			equal := len(x) == len(y)
			for i := 0; equal && i < len(x); i++ {
				equal = Equal(x[i], y[i])
			}
			if got := x.Key() == y.Key(); got != equal {
				t.Fatalf("%v vs %v: keys equal = %v, values equal = %v", x, y, got, equal)
			}
		}
	}
}
