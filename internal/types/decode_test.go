package types

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// FuzzPageDecode: the one-pass masked decode of a record — alone
// (DecodeColumns) or as part of a page (a Decoder over two copies) —
// equals a full decode through the two-pass refSlab followed by
// projection, owns its strings, and on bytes refSlab.Measure rejects
// fails with the error Measure reports, never a panic. The seeds are tuples of edge values (NULL, "", NaN, ±Inf,
// min/max int) and random payloads, whole, truncated and with a bad
// kind tag, under random masks.
func FuzzPageDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	seed := func(tp Tuple) {
		enc := EncodeTuple(nil, tp)
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

	f.Fuzz(func(t *testing.T, rec []byte, mask uint64) {
		var s refSlab
		used, want := s.Measure(rec)
		var full Tuple
		if want == nil {
			full, _ = s.Decode(rec)
		}
		width, _ := binary.Uvarint(rec)
		for _, cols := range [][]int{nil, maskCols(mask, width)} {
			src := bytes.Clone(rec)
			got, gotUsed, err := DecodeColumns(src, cols)
			if want != nil {
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("cols %v: error %v, Measure reports %v", cols, err, want)
				}
				d := NewDecoder(1, cols)
				if _, _, err := d.Decode(src); err == nil || err.Error() != want.Error() {
					t.Fatalf("cols %v: page decode error %v, Measure reports %v", cols, err, want)
				}
				continue
			}
			if err != nil || gotUsed != used {
				t.Fatalf("cols %v: used %d, err %v; Measure used %d", cols, gotUsed, err, used)
			}
			d := NewDecoder(2, cols)
			page := make([]Tuple, 2)
			for i := range page {
				if page[i], gotUsed, err = d.Decode(src); err != nil || gotUsed != used {
					t.Fatalf("cols %v: page row %d: used %d, err %v", cols, i, gotUsed, err)
				}
			}
			d.Own(page)
			for i := range src {
				src[i] = 0xff
			}
			for _, row := range append(page, got) {
				checkProjection(t, row, full, cols)
			}
		}
	})
}

// TestDecodeColumnsBeyondWidth: asking for a column the tuple does not
// have is an error, not a NULL.
func TestDecodeColumnsBeyondWidth(t *testing.T) {
	enc := EncodeTuple(nil, Tuple{Int(1), Str("x")})
	if _, _, err := DecodeColumns(enc, []int{1, 2}); !errors.Is(err, errMissingColumn) {
		t.Fatalf("columns 1 and 2 of a 2-column tuple: error %v, want %v", err, errMissingColumn)
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
