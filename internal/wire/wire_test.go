package wire

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"tango/internal/types"
)

func TestBatchRoundTrip(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.Str("Tom"), types.Date(9862)},
		{types.Int(2), types.Null, types.Float(2.5)},
	}
	enc := EncodeBatch(nil, rows)
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range rows {
		for j := range rows[i] {
			if !types.Equal(got[i][j], rows[i][j]) {
				t.Errorf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	enc := EncodeBatch(nil, nil)
	got, err := DecodeBatch(enc)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v, %v", got, err)
	}
}

func TestBatchCorruption(t *testing.T) {
	enc := EncodeBatch(nil, []types.Tuple{{types.Str("hello")}})
	if _, err := DecodeBatch(enc[:len(enc)-2]); err == nil {
		t.Error("truncated batch should fail")
	}
	if _, err := DecodeBatch(append(enc, 0xFF)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestDecodeBatchErrors pins the error a malformed batch gets, so a
// change to how batches are decoded keeps telling callers the same
// thing. Kind tags: 1 int, 2 float, 3 string.
func TestDecodeBatchErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "wire: bad batch header"},
		{"missing row", []byte{1}, "wire: row 0: types: bad tuple header"},
		{"missing value", []byte{1, 1}, "wire: row 0: types: truncated tuple"},
		{"cut varint", []byte{1, 1, 1, 0x80}, "wire: row 0: types: truncated varint"},
		{"cut float", []byte{1, 1, 2, 0, 0, 0}, "wire: row 0: types: truncated float"},
		{"cut string", []byte{1, 1, 3, 5, 'a', 'b'}, "wire: row 0: types: truncated string"},
		// A length near 2^64 overflowed the old bounds check and panicked.
		{"huge string", []byte{1, 1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, "wire: row 0: types: truncated string"},
		{"unknown kind", []byte{1, 1, 250}, "wire: row 0: types: unknown kind 250"},
		{"second row", []byte{2, 1, 1, 2, 1}, "wire: row 1: types: truncated tuple"},
		{"trailing", []byte{1, 1, 1, 2, 9, 9}, "wire: 2 trailing bytes"},
	} {
		for _, dst := range [][]types.Tuple{nil, make([]types.Tuple, 0, 4)} {
			if _, err := DecodeBatchInto(dst, c.data); err == nil || err.Error() != c.want {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
			}
		}
	}
}

// TestDecodeBatchCorruptCount: a batch whose header claims far more
// rows than its bytes can hold fails at the first missing row without
// first making room for the claimed rows — neither headers for 2^62
// rows nor values for a thousand rows as wide as the first.
func TestDecodeBatchCorruptCount(t *testing.T) {
	for _, c := range []struct {
		name  string
		count uint64
		width int
	}{
		{"huge count", 1 << 62, 1},
		{"wide first row", 1 << 20, 1000},
	} {
		data := binary.AppendUvarint(nil, c.count)
		data = binary.AppendUvarint(data, uint64(c.width))
		data = append(data, make([]byte, c.width)...) // c.width NULLs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(data)
		runtime.ReadMemStats(&after)
		if want := "wire: row 1: types: bad tuple header"; err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.name, err, want)
		}
		if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb > 4<<10 {
			t.Errorf("%s: decoding a %d-byte batch allocated %d KiB", c.name, len(data), kb)
		}
	}
}

// TestDecodedBatchOutlivesFrame: the frame buffer a batch arrived in
// goes back to a pool; the decoded rows must not read from it.
func TestDecodedBatchOutlivesFrame(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.Str("Tom"), types.Str("")},
		{types.Int(2), types.Str("Jane"), types.Str("Sales")},
	}
	enc := EncodeBatch(nil, rows)
	got, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	for i := range rows {
		for j := range rows[i] {
			if !types.Equal(got[i][j], rows[i][j]) {
				t.Errorf("row %d col %d reads %v after the frame was overwritten", i, j, got[i][j])
			}
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := types.NewSchema(
		types.Column{Name: "PosID", Kind: types.KindInt},
		types.Column{Name: "A.T1", Kind: types.KindDate},
	)
	enc := EncodeSchema(nil, s)
	got, n, err := DecodeSchema(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !got.Equal(s) {
		t.Errorf("schema: %v vs %v", got, s)
	}
}

func TestLatencyTransmit(t *testing.T) {
	var free Latency
	if free.Transmit(1<<20) != 0 {
		t.Error("zero latency should be free")
	}
	l := Latency{BytesPerSecond: 1e6}
	if d := l.Transmit(1e6); d != time.Second {
		t.Errorf("Transmit = %v", d)
	}
	if free.Wire(1<<20) != 0 {
		t.Error("zero latency should bill nothing")
	}
}
