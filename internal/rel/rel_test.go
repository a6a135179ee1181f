package rel

import (
	"math/rand"
	"testing"

	"tango/internal/types"
)

func sampleRelation() *Relation {
	r := New(types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "EmpName", Kind: types.KindString},
	))
	r.Append(types.Tuple{types.Int(2), types.Str("Tom")})
	r.Append(types.Tuple{types.Int(1), types.Str("Jane")})
	r.Append(types.Tuple{types.Int(1), types.Str("Tom")})
	return r
}

func TestDrainRoundTrip(t *testing.T) {
	r := sampleRelation()
	got, err := Drain(r.Iter())
	if err != nil {
		t.Fatal(err)
	}
	if !EqualAsLists(r, got) {
		t.Errorf("Drain(Iter()) != original:\n%v\nvs\n%v", r, got)
	}
}

func TestIteratorRequiresOpen(t *testing.T) {
	it := sampleRelation().Iter()
	if _, err := it.NextBatch(make([]types.Tuple, 1)); err == nil {
		t.Error("NextBatch before Open should fail")
	}
}

// TestSliceIterNextBatch reads a relation in batches, including the
// short final batch and the end-of-stream zero.
func TestSliceIterNextBatch(t *testing.T) {
	r := New(types.NewSchema(types.Column{Name: "A", Kind: types.KindInt}))
	for i := 0; i < 10; i++ {
		r.Append(types.Tuple{types.Int(int64(i))})
	}
	it := r.Iter()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	dst := make([]types.Tuple, 4)
	for _, want := range []int{4, 4, 2, 0} {
		if n, err := it.NextBatch(dst); err != nil || n != want {
			t.Fatalf("NextBatch = %d, %v; want %d", n, err, want)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSortBy(t *testing.T) {
	r := sampleRelation()
	r.SortBy("PosID", "EmpName")
	want := [][2]string{{"1", "Jane"}, {"1", "Tom"}, {"2", "Tom"}}
	for i, w := range want {
		if r.Tuples[i][0].String() != w[0] || r.Tuples[i][1].String() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, r.Tuples[i], w)
		}
	}
	if !r.IsSortedBy([]int{0, 1}) {
		t.Error("IsSortedBy false after SortBy")
	}
	r.Tuples[0], r.Tuples[2] = r.Tuples[2], r.Tuples[0]
	if r.IsSortedBy([]int{0}) {
		t.Error("IsSortedBy should be false after swapping rows")
	}
}

func TestEqualAsListsVsMultisets(t *testing.T) {
	a := sampleRelation()
	b := sampleRelation()
	if !EqualAsLists(a, b) || !EqualAsMultisets(a, b) {
		t.Fatal("copies should be equal both ways")
	}
	// Swap two rows: still multiset-equal, not list-equal.
	b.Tuples[0], b.Tuples[1] = b.Tuples[1], b.Tuples[0]
	if EqualAsLists(a, b) {
		t.Error("reordered lists should not be list-equal")
	}
	if !EqualAsMultisets(a, b) {
		t.Error("reordered lists should be multiset-equal")
	}
	// Change multiplicity: not multiset-equal.
	b.Tuples[2] = b.Tuples[0].Clone()
	if EqualAsMultisets(a, b) {
		t.Error("different multiplicities should not be multiset-equal")
	}
}

func TestMultisetEqualityRandomPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New(types.NewSchema(types.Column{Name: "V", Kind: types.KindInt}))
	for i := 0; i < 500; i++ {
		r.Append(types.Tuple{types.Int(rng.Int63n(20))})
	}
	p := r.Clone()
	rng.Shuffle(len(p.Tuples), func(i, j int) {
		p.Tuples[i], p.Tuples[j] = p.Tuples[j], p.Tuples[i]
	})
	if !EqualAsMultisets(r, p) {
		t.Error("permutation must stay multiset-equal")
	}
}

func TestNumericKeyNormalization(t *testing.T) {
	a := New(types.NewSchema(types.Column{Name: "V", Kind: types.KindInt}))
	a.Append(types.Tuple{types.Int(2)})
	b := New(a.Schema)
	b.Append(types.Tuple{types.Float(2.0)})
	if !EqualAsMultisets(a, b) {
		t.Error("Int(2) and Float(2.0) tuples should be multiset-equal")
	}
}

func TestSizes(t *testing.T) {
	r := sampleRelation()
	if r.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d", r.Cardinality())
	}
	if r.ByteSize() <= 0 || r.AvgTupleSize() <= 0 {
		t.Error("sizes should be positive")
	}
	empty := New(r.Schema)
	if empty.AvgTupleSize() != 0 {
		t.Error("empty relation avg size should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := sampleRelation()
	c := r.Clone()
	c.Tuples[0][0] = types.Int(99)
	if r.Tuples[0][0].AsInt() == 99 {
		t.Error("Clone shares tuple storage")
	}
}
