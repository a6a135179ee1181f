package rel

import (
	"testing"

	"tango/internal/types"
)

func batchTestRel(n int) *Relation {
	r := New(types.NewSchema(
		types.Column{Name: "A", Kind: types.KindInt},
		types.Column{Name: "B", Kind: types.KindInt},
	))
	for i := 0; i < n; i++ {
		r.Append(types.Tuple{types.Int(int64(i)), types.Int(int64(i * 2))})
	}
	return r
}

// TestSliceIterNextBatch exercises the in-memory batch fast path,
// including the short final batch and the end-of-stream zero.
func TestSliceIterNextBatch(t *testing.T) {
	r := batchTestRel(10)
	it := r.Iter()
	b, ok := it.(BatchIterator)
	if !ok {
		t.Fatal("relation iterator does not implement BatchIterator")
	}
	if _, err := b.NextBatch(make([]types.Tuple, 1)); err == nil {
		t.Fatal("NextBatch before Open should fail")
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	dst := make([]types.Tuple, 4)
	var got []types.Tuple
	for {
		n, err := b.NextBatch(dst)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if len(got) != 10 {
		t.Fatalf("got %d tuples, want 10", len(got))
	}
	for i, tu := range got {
		if tu[0].AsInt() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, tu)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// plainIter is a tuple-at-a-time producer without NextBatch; it keeps
// what it produced so a test can check the rows were handed on as they
// are.
type plainIter struct {
	n        int
	produced []types.Tuple
}

func (it *plainIter) Schema() types.Schema {
	return types.NewSchema(types.Column{Name: "A", Kind: types.KindInt})
}
func (it *plainIter) Open() error  { it.produced = nil; return nil }
func (it *plainIter) Close() error { return nil }
func (it *plainIter) Next() (types.Tuple, bool, error) {
	if len(it.produced) >= it.n {
		return nil, false, nil
	}
	t := types.Tuple{types.Int(int64(len(it.produced)))}
	it.produced = append(it.produced, t)
	return t, true, nil
}

// TestAsBatchFallback: the generic adapter batches a tuple-at-a-time
// producer and, produced tuples being immutable, hands on the very
// tuples it was given rather than copies.
func TestAsBatchFallback(t *testing.T) {
	in := &plainIter{n: 6}
	b := AsBatch(in)
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	dst := make([]types.Tuple, 6)
	n, err := b.NextBatch(dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("n=%d, want 6", n)
	}
	for i := 0; i < n; i++ {
		if dst[i][0].AsInt() != int64(i) {
			t.Fatalf("batch row %d = %v", i, dst[i])
		}
		if &dst[i][0] != &in.produced[i][0] {
			t.Fatalf("batch row %d was copied", i)
		}
	}
	if n, err := b.NextBatch(dst); err != nil || n != 0 {
		t.Fatalf("expected clean end of stream, got n=%d err=%v", n, err)
	}
}

// TestAsBatchPassthrough asserts AsBatch does not re-wrap a native
// batch producer.
func TestAsBatchPassthrough(t *testing.T) {
	it := batchTestRel(3).Iter()
	if AsBatch(it) != it.(BatchIterator) {
		t.Fatal("AsBatch re-wrapped a native BatchIterator")
	}
}

// TestNextBatchMixedWithNext checks the two protocols advance the same
// stream.
func TestNextBatchMixedWithNext(t *testing.T) {
	it := batchTestRel(5).Iter()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tu, ok, err := it.Next()
	if err != nil || !ok || tu[0].AsInt() != 0 {
		t.Fatalf("Next: %v %v %v", tu, ok, err)
	}
	dst := make([]types.Tuple, 2)
	n, err := NextBatch(it, dst)
	if err != nil || n != 2 || dst[0][0].AsInt() != 1 || dst[1][0].AsInt() != 2 {
		t.Fatalf("NextBatch after Next: n=%d err=%v dst=%v", n, err, dst[:n])
	}
	tu, ok, err = it.Next()
	if err != nil || !ok || tu[0].AsInt() != 3 {
		t.Fatalf("Next after NextBatch: %v %v %v", tu, ok, err)
	}
}

// BenchmarkBatchVsTuple quantifies the per-tuple interface-call saving
// of the batch protocol over an in-memory source.
func BenchmarkBatchVsTuple(b *testing.B) {
	r := batchTestRel(1 << 16)
	for _, mode := range []string{"tuple", "batch"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := r.Iter()
				if err := it.Open(); err != nil {
					b.Fatal(err)
				}
				rows := 0
				if mode == "tuple" {
					for {
						_, ok, err := it.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						rows++
					}
				} else {
					dst := make([]types.Tuple, DefaultBatchSize)
					bi := it.(BatchIterator)
					for {
						n, err := bi.NextBatch(dst)
						if err != nil {
							b.Fatal(err)
						}
						if n == 0 {
							break
						}
						rows += n
					}
				}
				if rows != 1<<16 {
					b.Fatalf("rows=%d", rows)
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
