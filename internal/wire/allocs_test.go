//go:build !race

package wire

import (
	"testing"

	"tango/internal/types"
)

// TestDecodeBatchAllocs guards the slab decode: a prefetch-sized batch
// of POSITION-shaped rows (three strings, a float, four integers) costs
// its row headers, its value slab and its string slab — it was two
// allocations per row before.
func TestDecodeBatchAllocs(t *testing.T) {
	rows := make([]types.Tuple, DefaultPrefetch)
	for i := range rows {
		rows[i] = types.Tuple{
			types.Int(int64(i)), types.Int(int64(i % 97)), types.Str("Employee Name"),
			types.Str("Dept"), types.Float(12.5), types.Str("Title"),
			types.Date(int64(9000 + i)), types.Date(int64(9100 + i)),
		}
	}
	data := EncodeBatch(nil, rows)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeBatchInto(nil, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("DecodeBatchInto of %d rows: %.0f allocs, want <= 4", len(rows), allocs)
	}
}
