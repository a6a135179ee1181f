package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"tango/internal/types"
)

// TestBatchRoundTrip also pins what a batch of rows of differing
// arity becomes: a block per run of one arity, decoding to exactly the
// rows given.
func TestBatchRoundTrip(t *testing.T) {
	for _, rows := range [][]types.Tuple{
		{
			{types.Int(1), types.Str("Tom"), types.Date(9862)},
			{types.Int(2), types.Null, types.Float(2.5)},
		},
		{{types.Int(1), types.Str("a")}, {types.Int(2)}, {}, {types.Int(3), types.Str("b")}},
	} {
		enc := EncodeBatch(nil, rows)
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rows) {
			t.Fatalf("rows = %d, want %d", len(got), len(rows))
		}
		for i := range rows {
			if len(got[i]) != len(rows[i]) {
				t.Fatalf("row %d has %d columns, want %d", i, len(got[i]), len(rows[i]))
			}
			for j := range rows[i] {
				if got[i][j].Kind() != rows[i][j].Kind() || !types.Equal(got[i][j], rows[i][j]) {
					t.Errorf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
				}
			}
		}
	}
}

// TestSparseBatchRoundTrip: batches whose blocks after the first would
// take less than a byte per row and per value — NULL-only, zero-width
// and mostly constant rows, past the block value cap — are cut into
// dense blocks, so they still decode to exactly the rows given.
func TestSparseBatchRoundTrip(t *testing.T) {
	for name, row := range map[string]func(i int) types.Tuple{
		"null":       func(int) types.Tuple { return types.Tuple{types.Null} },
		"zero-width": func(int) types.Tuple { return types.Tuple{} },
		"mostly constant": func(i int) types.Tuple {
			return types.Tuple{types.Int(int64(i % 200)), types.Int(7), types.Null, types.Str("")}
		},
	} {
		rows := make([]types.Tuple, 150_000)
		for i := range rows {
			rows[i] = row(i)
		}
		enc := EncodeBatch(nil, rows)
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(rows))
		}
		for i := range rows {
			if len(got[i]) != len(rows[i]) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], rows[i])
			}
			for j, v := range rows[i] {
				if got[i][j].Kind() != v.Kind() || !types.Equal(got[i][j], v) {
					t.Fatalf("%s: row %d = %v, want %v", name, i, got[i], rows[i])
				}
			}
		}
		if len(enc) > 2*len(rows)*(len(rows[0])+1) {
			t.Errorf("%s: %d rows took %d bytes", name, len(rows), len(enc))
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
// thing. A block is rows, cols, then per column a tag (1 int, 2 float,
// 3 string, 0x80: a NULL bitmap follows), a width byte, a base varint,
// the words, and for strings their byte count and bytes.
func TestDecodeBatchErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "wire: bad batch header"},
		{"missing header", []byte{1}, "wire: block at row 0: types: bad block header"},
		{"missing column", []byte{1, 1}, "wire: block at row 0: types: truncated column"},
		{"cut base", []byte{1, 1, 1, 0, 0x80}, "wire: block at row 0: types: truncated column"},
		{"cut float", []byte{1, 1, 2, 8, 0, 0, 0}, "wire: block at row 0: types: truncated column"},
		{"cut bitmap", []byte{9, 1, 0x81}, "wire: block at row 0: types: truncated column"},
		{"cut string", []byte{1, 1, 3, 1, 0, 5, 5, 'a', 'b'}, "wire: block at row 0: types: truncated column"},
		// A length near 2^64 must not overflow the bounds check.
		{"huge string", []byte{1, 1, 3, 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1}, "wire: block at row 0: types: truncated column"},
		{"bad offset", []byte{1, 1, 3, 1, 0, 5, 2, 'a', 'b'}, "wire: block at row 0: types: string offset out of range"},
		{"bad width", []byte{1, 1, 1, 3, 0}, "wire: block at row 0: types: bad column width 3"},
		{"unknown kind", []byte{1, 1, 0x7a}, "wire: block at row 0: types: bad column tag 0x7a"},
		{"over the cap", []byte{0x80, 0x80, 0x40, 0}, "wire: block at row 0: types: bad block header"},
		{"second block", []byte{1, 1, 1, 0, 2, 1, 1, 1}, "wire: block at row 1: types: truncated column"},
		{"trailing", []byte{1, 1, 1, 0, 2, 9}, "wire: block at row 1: types: bad block header"},
	} {
		for _, dst := range [][]types.Tuple{nil, make([]types.Tuple, 0, 4)} {
			if _, err := DecodeBatchInto(dst, c.data); err == nil || err.Error() != c.want {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
			}
		}
	}
}

// TestDecodeBatchCorruptCount: what decoding a batch allocates is
// bounded by its length, whatever its headers claim. A block claiming
// more rows than the block codec's value cap is refused at its header,
// without first making room for them — neither headers for 2^62 rows
// nor values for a million rows a thousand NULL columns wide. And a
// NULL or zero-width column costs no byte per row, so a 5-byte block
// can hold 16,384 rows: a kilobyte of such blocks back to back is
// refused at the second, which is not dense.
func TestDecodeBatchCorruptCount(t *testing.T) {
	block := func(rows uint64, cols int) []byte { // cols NULL columns
		b := binary.AppendUvarint(nil, rows)
		return append(binary.AppendUvarint(b, uint64(cols)), make([]byte, cols)...)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"huge count", block(1<<62, 1), "wire: block at row 0: types: bad block header"},
		{"wide first row", block(1<<20, 1000), "wire: block at row 0: types: bad block header"},
		{"sparse blocks", bytes.Repeat(block(1<<14, 1), 200), "wire: block at row 16384: 16384 rows of 1 columns in 5 bytes"},
		{"zero-width blocks", bytes.Repeat(block(1<<14, 0), 250), "wire: block at row 16384: 16384 rows of 0 columns in 4 bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(c.data)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb > 4<<10 {
			t.Errorf("%s: decoding a %d-byte batch allocated %d KiB", c.name, len(c.data), kb)
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
