package rel

import "tango/internal/types"

// DefaultBatchSize is the tuple count of one execution batch. It
// matches the wire prefetch default so a middleware batch is exactly
// one fetch batch in the common TRANSFER^M-fed pipeline.
const DefaultBatchSize = 256

// BatchIterator is the optional batch-at-a-time extension of Iterator.
// Operators that implement it move tuples in batches, paying one
// interface call per batch instead of one per tuple; consumers discover
// the fast path by type assertion (or via NextBatch below), so the
// protocol is transparent to the optimizer and to tuple-at-a-time
// operators.
//
// Contract: NextBatch fills dst[:len(dst)] with up to len(dst) tuples
// and returns the number written; n == 0 (with a nil error) means end
// of stream. The tuples follow Iterator's row-lifetime rule: immutable,
// and valid for as long as anyone holds them. Interleaving Next and
// NextBatch calls is allowed; both advance the same underlying stream.
type BatchIterator interface {
	Iterator
	NextBatch(dst []types.Tuple) (int, error)
}

// NextBatch pulls up to len(dst) tuples from it: the batch fast path
// when the iterator implements BatchIterator, otherwise a
// tuple-at-a-time fallback; native BatchIterator implementations avoid
// the per-tuple interface call.
func NextBatch(it Iterator, dst []types.Tuple) (int, error) {
	if b, ok := it.(BatchIterator); ok {
		return b.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		t, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		dst[n] = t
		n++
	}
	return n, nil
}

// AsBatch adapts any iterator to the batch protocol: a pass-through
// when it already implements BatchIterator, otherwise a wrapper whose
// NextBatch loops over Next.
func AsBatch(it Iterator) BatchIterator {
	if b, ok := it.(BatchIterator); ok {
		return b
	}
	return &batchAdapter{Iterator: it}
}

// batchAdapter lifts a tuple-at-a-time iterator to BatchIterator.
type batchAdapter struct{ Iterator }

func (a *batchAdapter) NextBatch(dst []types.Tuple) (int, error) {
	return NextBatch(a.Iterator, dst)
}

// NextBatch on a materialized relation's iterator copies tuple headers
// straight out of the backing slice — the batch-native fast path for
// in-memory sources (and, through it, SharedSource readers).
func (it *sliceIter) NextBatch(dst []types.Tuple) (int, error) {
	if it.pos < 0 {
		_, _, err := it.Next() // produce the canonical not-opened error
		return 0, err
	}
	n := copy(dst, it.rel.Tuples[it.pos:])
	it.pos += n
	return n, nil
}
