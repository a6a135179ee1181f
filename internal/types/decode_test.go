package types

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// maskCols turns the bits of mask into strictly ascending column
// positions below width.
func maskCols(mask, width uint64) []int {
	cols := []int{}
	for i := 0; i < 64 && uint64(i) < width; i++ {
		if mask&(1<<i) != 0 {
			cols = append(cols, i)
		}
	}
	return cols
}

// reused is the arena checkBlock decodes into, reset between inputs.
var reused Arena

// checkBlock is the property both block fuzzers hold the codec to:
//
//   - data as a block: decoding it, whole, under the column mask or for
//     a row range, returns an error or rows, never a panic; when the
//     whole decode succeeds, the masked and ranged decodes equal its
//     projection and slice, own their strings, the rows re-encode to a
//     block that decodes to them again, and AppendRow, when it splices
//     the last row on once more, gives a block decoding to one row more;
//   - data as row-oracle records: the rows the oracle reads from it,
//     encoded as blocks, decode to exactly those rows, masked too.
func checkBlock(t *testing.T, data []byte, mask uint64) {
	src := bytes.Clone(data)
	full, _, err := DecodeBlock(nil, nil, src, nil, 0, -1)
	_, ncols, _, _ := blockHeader(data)
	cols := maskCols(mask, uint64(ncols))
	lo, hi := int(mask>>56)%8, int(mask>>48)%64
	// The masked decode reuses an arena that earlier inputs dirtied.
	reused.Reset()
	masked, _, merr := DecodeBlock(nil, &reused, src, cols, 0, -1)
	ranged, _, rerr := DecodeBlock(nil, nil, src, nil, lo, hi)
	if err == nil {
		if merr != nil || rerr != nil {
			t.Fatalf("whole block decodes, but cols %v: %v, rows [%d,%d): %v", cols, merr, lo, hi, rerr)
		}
		for i := range src {
			src[i] = 0xff
		}
		for i, row := range full {
			checkProjection(t, masked[i], row, cols)
		}
		if want := full[min(lo, len(full)):min(max(hi, lo), len(full))]; len(ranged) != len(want) {
			t.Fatalf("rows [%d,%d) of %d: got %d rows", lo, hi, len(full), len(ranged))
		} else {
			for i, row := range want {
				checkProjection(t, ranged[i], row, nil)
			}
		}
		for i, row := range decodeBlocks(t, encodeBlocks(full), nil) {
			checkProjection(t, row, full[i], nil)
		}
		for _, row := range full[max(len(full)-1, 0):] {
			blk, n, used := AppendRow(nil, data, row)
			if n == 0 {
				continue
			}
			_, whole, _ := DecodeBlock(nil, nil, data, nil, 0, 0)
			got, _, err := DecodeBlock(nil, nil, blk, nil, 0, -1)
			if err != nil || n != len(full)+1 || len(got) != n || used != whole {
				t.Fatalf("AppendRow onto %d rows of %d bytes: %d rows (%d decoded) over %d bytes, %v", len(full), whole, n, len(got), used, err)
			}
			for i, want := range append(full[:len(full):len(full)], row) {
				checkProjection(t, got[i], want, nil)
			}
		}
	}

	for rows := oracleRows(data); len(rows) > 0; {
		enc, n := AppendBlock(nil, rows)
		block := rows[:n]
		rows = rows[n:]
		for _, cs := range [][]int{nil, maskCols(mask, uint64(len(block[0])))} {
			got, used, err := DecodeBlock(nil, nil, enc, cs, 0, -1)
			if err != nil || used != len(enc) || len(got) != n {
				t.Fatalf("cols %v: block of %d oracle rows: %d rows, %d of %d bytes, %v", cs, n, len(got), used, len(enc), err)
			}
			for i, row := range got {
				checkProjection(t, row, block[i], cs)
			}
		}
	}
}

// FuzzBlockDecode: arbitrary bytes under random column masks decode to
// an error or rows, never a panic, and encoded blocks round-trip against
// the row oracle (checkBlock). The seeds are blocks of the columns a
// layout is most likely to get wrong: NULL-only, constant, every width
// edge, MinInt64…MaxInt64, -0.0 and NaN, empty strings and embedded
// NULs, mixed kinds, no rows and no columns — whole, truncated and with
// a corrupt byte.
func FuzzBlockDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(26))
	col := func(vals ...Value) []Tuple {
		rows := make([]Tuple, len(vals))
		for i, v := range vals {
			rows[i] = Tuple{v, Int(int64(i))}
		}
		return rows
	}
	for _, rows := range [][]Tuple{
		nil,
		{{}, {}, {}},
		col(Null, Null, Null),
		col(Int(7), Int(7), Int(7), Null),
		col(Int(0), Int(255)),
		col(Int(0), Int(256)),
		col(Int(-1), Int(65534)),
		col(Int(0), Int(1<<32)),
		col(Int(math.MinInt64), Int(math.MaxInt64), Null),
		col(Date(0), Date(9862), Date(-1)),
		col(Bool(true), Bool(false), Null),
		col(Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(-1)), Null),
		col(Str(""), Str(""), Null),
		col(Str("O'Hara\n\x00"), Str("\x00\x00"), Str("")),
		col(Int(1), Str("two"), Float(3), Null, Date(4), Bool(true), Str("")),
		{edgeValues, edgeValues},
	} {
		enc := encodeBlocks(rows)
		f.Add(enc, rng.Uint64())
		f.Add(enc[:rng.Intn(len(enc))], rng.Uint64())
		bad := bytes.Clone(enc)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		f.Add(bad, rng.Uint64())
	}
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 1), uint64(1)) // a header no block can back
	f.Fuzz(checkBlock)
}

// FuzzPageDecode holds the codec to checkBlock from row-oracle records:
// its seeds are records of tuples of edge values (NULL, "", NaN, ±Inf,
// min/max int) and random payloads, whole, truncated and with a bad
// kind tag, under random masks, so each is both a row the oracle reads
// and a block the decoder must reject or accept without a panic.
func FuzzPageDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	seed := func(tp Tuple) {
		enc := encodeRow(nil, tp)
		f.Add(enc, rng.Uint64())
		f.Add(enc[:rng.Intn(len(enc))], rng.Uint64())
		if len(enc) > 1 {
			bad := bytes.Clone(enc)
			bad[1] = 250
			f.Add(bad, rng.Uint64())
		}
	}
	seed(Tuple(edgeValues))
	for range 40 {
		seed(Tuple(tupleGen{}.Generate(rng, 0).Interface().(tupleGen)))
	}
	f.Add(binary.AppendUvarint(nil, 1<<40), uint64(1)) // a header no record can back
	f.Fuzz(checkBlock)
}

// TestDecodeColumnsBeyondWidth: asking for a column the block does not
// have is an error, not a NULL.
func TestDecodeColumnsBeyondWidth(t *testing.T) {
	enc, _ := AppendBlock(nil, []Tuple{{Int(1), Str("x")}})
	if _, _, err := DecodeBlock(nil, nil, enc, []int{1, 2}, 0, -1); !errors.Is(err, errMissingColumn) {
		t.Fatalf("columns 1 and 2 of a 2-column block: error %v, want %v", err, errMissingColumn)
	}
}

// checkProjection fails unless row is full's columns cols (nil: all).
func checkProjection(t *testing.T, row, full Tuple, cols []int) {
	t.Helper()
	if cols == nil {
		cols = make([]int, len(full))
		for i := range cols {
			cols[i] = i
		}
	}
	if row == nil || len(row) != len(cols) {
		t.Fatalf("got %v (nil %t), want %d columns of %v", row, row == nil, len(cols), full)
	}
	for k, c := range cols {
		if !identical(row[k], full[c]) {
			t.Fatalf("column %d: got %v, want %v", c, row[k], full[c])
		}
	}
}
