package wire

import (
	"testing"

	"tango/internal/types"
)

// benchRows builds one prefetch-sized batch of UIS-shaped tuples
// (int key, string payload, two int timestamps).
func benchRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i)),
			types.Str("payload-payload-payload"),
			types.Int(int64(1990 + i%30)),
			types.Int(int64(2020 + i%30)),
		}
	}
	return rows
}

// BenchmarkEncodeBatchPooled is the steady-state server fetch path:
// borrow a scratch buffer from the pool, encode one batch, return it.
// Allocations per op should stay near zero once the pool is warm.
func BenchmarkEncodeBatchPooled(b *testing.B) {
	rows := benchRows(DefaultPrefetch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		buf = EncodeBatch(buf, rows)
		PutBuf(buf)
	}
}

// BenchmarkEncodeBatchFresh is the same encode without the pool — the
// baseline the pool is measured against (one growing allocation per
// batch).
func BenchmarkEncodeBatchFresh(b *testing.B) {
	rows := benchRows(DefaultPrefetch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EncodeBatch(nil, rows)
	}
}

// BenchmarkDecodeBatchInto reuses one row-header slice across batches
// (the client Rows.fetch path); the decoded tuples themselves are
// necessarily fresh, since consumers may retain them — one slab per
// batch.
func BenchmarkDecodeBatchInto(b *testing.B) {
	rows := benchRows(DefaultPrefetch)
	data := EncodeBatch(nil, rows)
	var hdr []types.Tuple
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		hdr, err = DecodeBatchInto(hdr[:0], data)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkDecodeBatchFresh allocates a new header slice per batch —
// the pre-reuse baseline.
func BenchmarkDecodeBatchFresh(b *testing.B) {
	rows := benchRows(DefaultPrefetch)
	data := EncodeBatch(nil, rows)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTrip is one full wire round trip per op: pooled encode
// on the server side, header-reusing decode on the client side.
func BenchmarkRoundTrip(b *testing.B) {
	rows := benchRows(DefaultPrefetch)
	var hdr []types.Tuple
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuf()
		buf = EncodeBatch(buf, rows)
		var err error
		hdr, err = DecodeBatchInto(hdr[:0], buf)
		if err != nil {
			b.Fatal(err)
		}
		PutBuf(buf)
	}
	_ = hdr
}
