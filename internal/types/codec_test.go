package types

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// blockRoundTrip encodes rows as one block and reports whether it
// decodes to them, kind for kind, using the whole block.
func blockRoundTrip(rows []Tuple) bool {
	enc, n := AppendBlock(nil, rows)
	got, used, err := DecodeBlock(nil, nil, enc, nil, 0, -1)
	if err != nil || n != len(rows) || used != len(enc) || len(got) != len(rows) {
		return false
	}
	for i, t := range rows {
		if len(got[i]) != len(t) {
			return false
		}
		for j := range t {
			if !identical(got[i][j], t[j]) {
				return false
			}
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	cases := [][]Tuple{
		nil,
		{{}},
		{{}, {}, {}},
		{{Null}},
		{{Int(0), Int(-1), Int(1 << 40)}},
		{{Float(3.14159), Float(math.Copysign(0, -1))}, {Float(math.NaN()), Null}},
		{{Str(""), Str("hello"), Str("O'Hara\n\x00")}, {Str(""), Null, Str("")}},
		{{Bool(true), Bool(false)}, {Null, Bool(true)}},
		{{Date(9862), Null, Str("x"), Int(7)}, {Int(7), Str("y"), Date(1), Float(2)}},
		{{Int(math.MinInt64)}, {Int(math.MaxInt64)}, {Null}},
	}
	for i, c := range cases {
		if !blockRoundTrip(c) {
			t.Errorf("case %d (%v) failed round trip", i, c)
		}
	}
}

func TestCodecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func() []Tuple {
		rows := make([]Tuple, rng.Intn(40))
		arity := rng.Intn(6)
		for r := range rows {
			tp := make(Tuple, arity)
			for i := range tp {
				switch rng.Intn(6) {
				case 0:
					tp[i] = Null
				case 1:
					tp[i] = Int(rng.Int63() - rng.Int63())
				case 2:
					tp[i] = Float(rng.NormFloat64())
				case 3:
					b := make([]byte, rng.Intn(30))
					rng.Read(b)
					tp[i] = Str(string(b))
				case 4:
					tp[i] = Bool(rng.Intn(2) == 0)
				default:
					tp[i] = Date(rng.Int63n(30000))
				}
			}
			rows[r] = tp
		}
		return rows
	}
	f := func() bool { return blockRoundTrip(gen()) }
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCodecStream: blocks back to back decode at the right offsets.
func TestCodecStream(t *testing.T) {
	buf, _ := AppendBlock(nil, []Tuple{{Int(1), Str("x")}})
	buf, _ = AppendBlock(buf, []Tuple{{Float(2.5)}})
	got1, n1, err := DecodeBlock(nil, nil, buf, nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := DecodeBlock(nil, nil, buf[n1:], nil, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) || !Equal(got1[0][0], Int(1)) || !Equal(got2[0][0], Float(2.5)) {
		t.Error("stream decode mismatch")
	}
}

// TestCodecCorruption: every truncation of a block is an error, and so
// is an unknown column tag; neither panics.
func TestCodecCorruption(t *testing.T) {
	enc, _ := AppendBlock(nil, []Tuple{{Str("hello world"), Int(42), Null}, {Str(""), Int(-3), Float(1)}})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeBlock(nil, nil, enc[:cut], nil, 0, -1); err == nil {
			t.Errorf("block cut to %d of %d bytes decoded", cut, len(enc))
		}
	}
	bad := bytes.Clone(enc)
	bad[2] = 0x7a // the first column's tag
	if _, _, err := DecodeBlock(nil, nil, bad, nil, 0, -1); err == nil {
		t.Error("invalid column tag should error")
	}
}

// TestBlockMixedArity pins what the encoder does with rows of differing
// arity: a block takes the longest prefix of one arity, and a batch of
// such blocks decodes to exactly the rows given.
func TestBlockMixedArity(t *testing.T) {
	rows := []Tuple{{Int(1), Str("a")}, {Int(2), Str("b")}, {Int(3)}, {}, {}, {Int(4), Str("c")}}
	if _, n := AppendBlock(nil, rows); n != 2 {
		t.Fatalf("first block holds %d rows, want 2", n)
	}
	var s BlockSizer
	for i, r := range rows {
		if ok := s.Add(r); ok != (len(r) == 2) {
			t.Fatalf("BlockSizer.Add(row %d) = %t", i, ok)
		}
	}
	got := decodeBlocks(t, encodeBlocks(rows), nil)
	if len(got) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Fatalf("row %d has arity %d, want %d", i, len(got[i]), len(rows[i]))
		}
		for j := range rows[i] {
			if !identical(got[i][j], rows[i][j]) {
				t.Fatalf("row %d column %d: %v, want %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

// TestBlockWidths: a column's width is the fewest bytes holding its
// span, at every edge, and the values survive.
func TestBlockWidths(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		width  int
	}{
		{5, 5, 0},
		{-1, 254, 1},
		{0, 255, 1},
		{0, 256, 2},
		{-7, 65528, 2},
		{0, 65536, 4},
		{0, 1<<32 - 1, 4},
		{0, 1 << 32, 8},
		{math.MinInt64, math.MaxInt64, 8},
		{math.MaxInt64 - 1, math.MaxInt64, 1},
	} {
		rows := []Tuple{{Int(c.hi)}, {Int(c.lo)}, {Int(c.hi)}}
		enc, _ := AppendBlock(nil, rows)
		var s colStat
		for _, r := range rows {
			s.add(r[0])
		}
		if got := width(uint64(s.hi) - uint64(s.lo)); got != c.width {
			t.Errorf("span %d…%d: width %d, want %d", c.lo, c.hi, got, c.width)
		}
		// header (2) + tag + width byte + base varint + 3 deltas
		if want := 4 + varintLen(c.lo) + 3*c.width; len(enc) != want {
			t.Errorf("span %d…%d: block of %d bytes, want %d", c.lo, c.hi, len(enc), want)
		}
		if !blockRoundTrip(rows) {
			t.Errorf("span %d…%d failed round trip", c.lo, c.hi)
		}
	}
}

// TestBlockSizerMatchesEncoder: the sizer reports exactly the length
// AppendBlock writes, row by row.
func TestBlockSizerMatchesEncoder(t *testing.T) {
	f := func(group []tupleGen, arity uint8) bool {
		var s BlockSizer
		var rows []Tuple
		for _, tp := range group {
			r := append(Tuple(tp), make(Tuple, int(arity%5))...)[:arity%5]
			if !s.Add(r) {
				return false
			}
			rows = append(rows, r)
			if enc, _ := AppendBlock(nil, rows); len(enc) != s.Size() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	var s BlockSizer
	if enc, _ := AppendBlock(nil, nil); s.Size() != len(enc) {
		t.Errorf("empty sizer: %d, want %d", s.Size(), len(enc))
	}
}

// TestAppendRowMatchesAppendBlock: a row AppendRow splices into a block
// gives exactly the bytes AppendBlock writes for all the rows — also
// when it moves a column's base or widens it — and every row that keeps
// each column's tag is spliced, not refused: here every row from the
// third on, over each kind of column alone and all of them side by side.
func TestAppendRowMatchesAppendBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := []func(i int) Value{
		func(i int) Value { return Int(int64(i)) },        // widens at 256
		func(i int) Value { return Int(int64(1000 - i)) }, // a new base every row
		func(int) Value { return Int(42) },
		func(int) Value { return Null },
		func(i int) Value {
			if i%3 == 0 {
				return Null
			}
			return Int(rng.Int63n(100))
		},
		func(int) Value { return Str(string(make([]byte, rng.Intn(4)))) },
		func(i int) Value {
			if i%2 == 0 {
				return Str("x")
			}
			return Int(int64(i))
		},
		func(int) Value { return Float(rng.NormFloat64()) },
		func(i int) Value { return Bool(i%2 == 0) },
		func(int) Value { return Date(9000 + rng.Int63n(100)) },
	}
	check := func(name string, gens ...func(int) Value) {
		rows := make([]Tuple, 300)
		for i := range rows {
			for _, g := range gens {
				rows[i] = append(rows[i], g(i))
			}
		}
		enc, _ := AppendBlock(nil, rows[:1])
		spliced := 0
		for i := 1; i < len(rows); i++ {
			want, _ := AppendBlock(nil, rows[:i+1])
			if got, n, used := AppendRow(nil, enc, rows[i]); n != 0 {
				if spliced++; n != i+1 || used != len(enc) || !bytes.Equal(got, want) {
					t.Fatalf("%s: row %d spliced into %d rows (%d of %d bytes): %d rows, bytes differ: %t", name, i, i, used, len(enc), n, !bytes.Equal(got, want))
				}
			}
			enc = want
		}
		if spliced < len(rows)-2 {
			t.Errorf("%s: %d of %d rows spliced", name, spliced, len(rows)-1)
		}
	}
	for i, g := range gens {
		check(fmt.Sprintf("column %d", i), g)
	}
	check("all columns", gens...)
	if _, n, _ := AppendRow(nil, []byte{0, 0}, Tuple{}); n != 0 {
		t.Error("AppendRow onto an empty block spliced")
	}
	full, _ := AppendBlock(nil, make([]Tuple, maxBlockValues))
	if _, n, _ := AppendRow(nil, full, Tuple{}); n != 0 {
		t.Error("AppendRow past the value cap spliced")
	}
}

// TestBlockDecodeRows: decoding rows [lo, hi) of a block, as a heap
// page's Get and a snapshot's tail cut do, equals that slice of the
// whole block.
func TestBlockDecodeRows(t *testing.T) {
	rows := make([]Tuple, 50)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i * i)), Str(string(rune('a' + i%26))), Null, Float(float64(i))}
		if i%7 == 0 {
			rows[i][1], rows[i][2] = Null, Str("seven")
		}
	}
	enc, _ := AppendBlock(nil, rows)
	for _, r := range [][2]int{{0, 0}, {0, 1}, {49, 50}, {10, 20}, {7, 8}, {45, -1}, {3, 99}} {
		for _, cols := range [][]int{nil, {1}, {0, 2}, {}} {
			got, _, err := DecodeBlock(nil, nil, enc, cols, r[0], r[1])
			if err != nil {
				t.Fatalf("rows %v cols %v: %v", r, cols, err)
			}
			hi := r[1]
			if hi < 0 || hi > len(rows) {
				hi = len(rows)
			}
			if len(got) != hi-r[0] {
				t.Fatalf("rows %v cols %v: %d rows", r, cols, len(got))
			}
			for i, row := range got {
				checkProjection(t, row, rows[r[0]+i], cols)
			}
		}
	}
}
