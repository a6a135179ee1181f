package types

import (
	"strings"
	"testing"
)

// TestArenaCopyOwnsStrings: a copy shares no memory with its source,
// so the source's bytes can be overwritten under it.
func TestArenaCopyOwnsStrings(t *testing.T) {
	src := []byte("hello worldbye")
	row := Tuple{Int(7), Str(string(src[:11])), Null, Str(""), Float(2.5)}
	// Point the string at src itself, as a decoded row's points into
	// its producer's memory.
	row[1] = strAt(src, 0, 11)
	var a Arena
	c := a.Copy(row)
	for i := range src {
		src[i] = 'x'
	}
	want := Tuple{Int(7), Str("hello world"), Null, Str(""), Float(2.5)}
	if !equalTuples(c, want) {
		t.Fatalf("copy = %v, want %v", c, want)
	}
}

// TestArenaKeepAcrossChunks: kept rows come back in order as one slice
// however many chunks they span, and keeping goes on after Rows.
func TestArenaKeepAcrossChunks(t *testing.T) {
	var a Arena
	const n = 10000
	for i := range n {
		a.Keep(Tuple{Int(int64(i)), Str(strings.Repeat("s", i%20))})
	}
	rows := a.Rows()
	if len(rows) != n {
		t.Fatalf("%d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) || r[1].AsString() != strings.Repeat("s", i%20) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	a.Keep(Tuple{Int(n)})
	if rows := a.Rows(); len(rows) != n+1 || rows[n][0].AsInt() != n {
		t.Fatalf("after one more Keep: %d rows, last %v", len(rows), rows[len(rows)-1])
	}
}

// TestArenaChunkSizes: chunks start small and double up to the cap, so
// a small result pays for no big chunk; a take past the cap gets a
// chunk of its own size.
func TestArenaChunkSizes(t *testing.T) {
	var a Arena
	a.Make(3)
	if got := cap(a.vals.list[0].s); got != valueChunks.least {
		t.Fatalf("first chunk holds %d values, want %d", got, valueChunks.least)
	}
	for range 20 * valueChunks.most {
		a.Make(1)
	}
	for _, ch := range a.vals.list {
		if cap(ch.s) > valueChunks.most {
			t.Fatalf("chunk of %d values past the cap of %d", cap(ch.s), valueChunks.most)
		}
	}
	big := a.Make(3 * valueChunks.most)
	if len(big) != 3*valueChunks.most || cap(big) != len(big) {
		t.Fatalf("a take past the cap: len %d cap %d", len(big), cap(big))
	}
}

// TestArenaResetReuses: after a Reset the same rows land in the same
// memory, so a producer that resets per batch stops allocating once its
// arena has grown to a batch; Free leaves the arena empty and usable.
func TestArenaResetReuses(t *testing.T) {
	var a Arena
	batch := func() *Value {
		first := a.Copy(Tuple{Int(1), Str("a")})
		for range 999 {
			a.Copy(Tuple{Int(2), Str("bb")})
		}
		return &first[0]
	}
	batch()
	a.Reset()
	p := batch()
	a.Reset()
	if q := batch(); q != p {
		t.Fatal("a reset arena did not reuse its first chunk")
	}
	a.Free()
	if a.vals.list != nil || a.strs.list != nil || a.rows.list != nil {
		t.Fatal("Free left chunks in the arena")
	}
	if c := a.Copy(Tuple{Str("again")}); c[0].AsString() != "again" {
		t.Fatalf("copy after Free = %v", c)
	}
}

func equalTuples(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeBlockWindows: decoding into an arena takes the rows a
// chunk-sized window at a time, with and without conjuncts, and gives
// the rows a fresh decode does.
func TestDecodeBlockWindows(t *testing.T) {
	const n = 4000
	rows := make([]Tuple, n)
	for i := range rows {
		rows[i] = Tuple{Int(int64(i)), Str(strings.Repeat("v", i%7)), Null, Float(float64(i % 10))}
		if i%5 == 0 {
			rows[i][1] = Null
		}
	}
	blk, m := AppendBlock(nil, rows)
	if m != n {
		t.Fatalf("one block holds %d of %d rows", m, n)
	}
	var a Arena
	for _, where := range [][]Conjunct{nil, {{Col: 3, Lit: Int(4), Pass: Above}}} {
		for _, cols := range [][]int{nil, {1, 3}, {2}} {
			want, _, err := DecodeBlock(nil, nil, blk, cols, 3, -1, where...)
			if err != nil {
				t.Fatal(err)
			}
			a.Reset()
			got, _, err := DecodeBlock(nil, &a, blk, cols, 3, -1, where...)
			if err != nil || len(got) != len(want) {
				t.Fatalf("cols %v where %v: %d rows, err %v; want %d", cols, where, len(got), err, len(want))
			}
			for i := range want {
				if !equalTuples(got[i], want[i]) {
					t.Fatalf("cols %v where %v: row %d = %v, want %v", cols, where, i, got[i], want[i])
				}
			}
			for _, ch := range a.vals.list {
				if cap(ch.s) > valueChunks.most {
					t.Fatalf("cols %v where %v: a chunk of %d values", cols, where, cap(ch.s))
				}
			}
		}
	}
}
