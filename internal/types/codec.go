package types

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The block is the one byte form of a group of rows: a heap page is one
// block, a wire batch a sequence of blocks and a SORT^M spill run a
// sequence of length-prefixed blocks, so every row crossing the
// middleware/DBMS boundary costs real serialization work, as over JDBC.
// A block is PAX (Ailamaki, DeWitt, Hill & Skounakis, "Weaving Relations
// for Cache Performance", VLDB 2001): its rows are stored column by
// column, so a reader skips a column it does not keep at the cost of one
// header and decodes a kept one in one tight loop. Layout (varints as in
// encoding/binary, fixed-width fields little endian):
//
//	block  = rows uvarint, cols uvarint, column × cols
//	column = tag byte — the column's kind, | 0x80 when it holds a NULL —
//	         then, unless the kind is NULL (every row NULL):
//	         [NULL bitmap: ⌈rows/8⌉ bytes, bit r set = row r NULL, when tagged]
//	         [rows kind bytes, when the non-NULL kinds differ (mixed)]
//	         width byte w, base varint, rows × w-byte words
//	         [n uvarint, n string bytes, when the column holds strings]
//
// A row's word is base + its w-byte field: an integer, date or boolean
// payload, a float's IEEE-754 bits (so -0.0 and NaN round-trip bit
// exact), a string's end offset in the string bytes, or — in a mixed
// column, whose base is 0 and width 8 — the payload, with a string's
// offset in the low and its length in the high 32 bits. w is 0, 1, 2, 4
// or 8: the fewest bytes holding the words' span, computed in uint64 so
// MinInt64…MaxInt64 takes 8; width 0 is a constant column. Every row of
// a block has one arity. A NULL row's field is zero, or in a string
// column the previous row's end.

const (
	nullFlag  = 0x80
	kindMixed = KindDate + 1 // the tag of a column whose non-NULL kinds differ

	// maxBlockValues caps rows × max(arity, 1) in a block of more than
	// one row, so one decode allocates at most this many values (384 KiB
	// of them) whatever a corrupt header claims. An 8 KB page reaches it
	// only with under half a byte per value; a 256-row fetch only past
	// 64 columns.
	maxBlockValues = 1 << 14
)

var (
	errBadHeader     = errors.New("types: bad block header")
	errTruncated     = errors.New("types: truncated column")
	errBadOffset     = errors.New("types: string offset out of range")
	errMissingColumn = errors.New("types: block lacks a decoded column")
)

// colStat accumulates what a column's layout depends on: the kinds of
// its non-NULL values, whether it holds a NULL, the span of their
// payloads and their string bytes.
type colStat struct {
	kinds  uint8 // bit k set: the column holds a non-NULL value of kind k
	nulls  bool
	lo, hi int64
	strs   int
}

func (s *colStat) add(v Value) {
	switch {
	case v.kind == KindNull:
		s.nulls = true
		return
	case s.kinds == 0:
		s.lo, s.hi = v.n, v.n
	default:
		s.lo, s.hi = min(s.lo, v.n), max(s.hi, v.n)
	}
	s.kinds |= 1 << v.kind
	if v.kind == KindString {
		s.strs += int(v.n)
	}
}

// layout returns the column's tag kind and its words' base and width.
func (s *colStat) layout() (k Kind, base uint64, w int) {
	switch {
	case s.kinds&(s.kinds-1) != 0:
		return kindMixed, 0, 8
	case s.kinds == 0:
		return KindNull, 0, 0
	case s.kinds == 1<<KindString:
		return KindString, 0, width(uint64(s.strs))
	}
	return Kind(bits.TrailingZeros8(s.kinds)), uint64(s.lo), width(uint64(s.hi) - uint64(s.lo))
}

// size returns the length of the column's encoding over n rows: what
// appendColumn writes.
func (s *colStat) size(n int) int {
	k, base, w := s.layout()
	if k == KindNull {
		return 1
	}
	size := 2 + varintLen(int64(base)) + n*w
	if s.nulls {
		size += (n + 7) / 8
	}
	if k == kindMixed {
		size += n
	}
	if k == KindString || k == kindMixed {
		size += uvarintLen(uint64(s.strs)) + s.strs
	}
	return size
}

// appendColumn appends column c of rows, whose statistics s holds.
func (s *colStat) appendColumn(dst []byte, rows []Tuple, c int) []byte {
	k, base, w := s.layout()
	if k == KindNull {
		return append(dst, byte(KindNull))
	}
	if !s.nulls {
		dst = append(dst, byte(k))
	} else {
		dst = append(dst, byte(k)|nullFlag)
		at := len(dst)
		dst = append(dst, make([]byte, (len(rows)+7)/8)...)
		for r, t := range rows {
			if t[c].kind == KindNull {
				dst[at+r/8] |= 1 << (r % 8)
			}
		}
	}
	if k == kindMixed {
		for _, t := range rows {
			dst = append(dst, byte(t[c].kind))
		}
	}
	dst = append(dst, byte(w))
	dst = binary.AppendVarint(dst, int64(base))
	end := uint64(0) // string bytes so far
	for _, t := range rows {
		dst = appendUint(dst, field(k, base, t[c], end), w)
		if t[c].kind == KindString {
			end += uint64(t[c].n)
		}
	}
	if k == KindString || k == kindMixed {
		dst = binary.AppendUvarint(dst, uint64(s.strs))
		for _, t := range rows {
			if t[c].kind == KindString {
				dst = append(dst, t[c].str()...)
			}
		}
	}
	return dst
}

// field returns v's field in a column of tag kind k and base base whose
// rows before v hold end string bytes.
func field(k Kind, base uint64, v Value, end uint64) uint64 {
	switch {
	case k == KindString:
		return end + uint64(v.n) // a NULL's n is 0
	case v.kind == KindString:
		return end | uint64(v.n)<<32
	case v.kind == KindNull:
		return 0
	}
	return uint64(v.n) - base
}

// width returns the bytes of a field holding 0…span: 0, 1, 2, 4 or 8.
func width(span uint64) int {
	if span == 0 {
		return 0
	}
	return 1 << bits.Len(uint(bits.Len64(span)-1)/8)
}

// maxField returns the largest field w bytes hold.
func maxField(w int) uint64 { return uint64(1)<<(8*w) - 1 }

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(x int64) int   { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// appendUint appends the w low bytes of x.
func appendUint(dst []byte, x uint64, w int) []byte {
	return binary.LittleEndian.AppendUint64(dst, x)[:len(dst)+w]
}

// uintAt returns the i-th w-byte field of b.
func uintAt(b []byte, i, w int) uint64 {
	switch w {
	case 1:
		return uint64(b[i])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[2*i:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[4*i:]))
	case 8:
		return binary.LittleEndian.Uint64(b[8*i:])
	}
	return 0
}

// MaxBlockRows is the most rows of the given arity one block holds: a
// batch of at most this many rows encodes as a single block.
func MaxBlockRows(arity int) int { return max(1, maxBlockValues/max(arity, 1)) }

// AppendBlock appends one block to dst holding the longest prefix of
// rows that shares rows[0]'s arity and fits the block's value cap, and
// returns the extended slice and the prefix's length. A caller with rows
// left writes further blocks, so no block ever decodes to rows other
// than those it was given. Empty rows append an empty block.
func AppendBlock(dst []byte, rows []Tuple) ([]byte, int) {
	n, arity := 0, 0
	if len(rows) > 0 {
		arity = len(rows[0])
		n = min(len(rows), MaxBlockRows(arity))
		for i := 1; i < n; i++ {
			if len(rows[i]) != arity {
				n = i
			}
		}
	}
	rows = rows[:n]
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(arity))
	for c := range arity {
		var s colStat
		for _, t := range rows {
			s.add(t[c])
		}
		dst = s.appendColumn(dst, rows, c)
	}
	return dst, n
}

// A BlockSizer measures the block a growing group of rows encodes to —
// exactly the length AppendBlock would write — from per-column
// statistics, without encoding it.
type BlockSizer struct {
	cols []colStat
	rows int
}

// Reset empties the group.
func (s *BlockSizer) Reset() { s.cols, s.rows = s.cols[:0], 0 }

// Add adds t to the group and reports true, or reports false and leaves
// the group as it was when t cannot join it: its arity differs, or the
// block is at its value cap.
func (s *BlockSizer) Add(t Tuple) bool {
	if s.rows == 0 {
		s.cols = append(s.cols[:0], make([]colStat, len(t))...)
	} else if len(t) != len(s.cols) || (s.rows+1)*max(len(t), 1) > maxBlockValues {
		return false
	}
	for i, v := range t {
		s.cols[i].add(v)
	}
	s.rows++
	return true
}

// Size returns the length of the group's block.
func (s *BlockSizer) Size() int {
	n := uvarintLen(uint64(s.rows)) + uvarintLen(uint64(len(s.cols)))
	for i := range s.cols {
		n += s.cols[i].size(s.rows)
	}
	return n
}

// AppendRow appends to dst block b with row t added, when t keeps every
// column's tag — a value of the column's kind (any kind in a mixed
// column), a NULL where it has a bitmap — and returns the extended
// slice, the new block's row count and the length of b's block. It
// writes what AppendBlock writes for b's rows and t, working on the
// block's bytes: a column's words are copied, or rewritten when t moves
// their base or widens them. It returns dst, 0 and 0 when t changes a
// tag, or b is empty, corrupt or at its value cap: the caller
// re-encodes the rows.
func AppendRow(dst, b []byte, t Tuple) ([]byte, int, int) {
	rows, cols, pos, err := blockHeader(b)
	if err != nil || rows == 0 || cols != len(t) || (rows+1)*max(cols, 1) > maxBlockValues {
		return dst, 0, 0
	}
	at := len(dst)
	dst = binary.AppendUvarint(dst, uint64(rows+1))
	dst = binary.AppendUvarint(dst, uint64(cols))
	for _, v := range t {
		c, used, err := parseColumn(b[pos:], rows)
		if pos += used; err != nil || !c.fits(v, rows) {
			return dst[:at], 0, 0
		}
		dst = c.appendRow(dst, rows, v)
	}
	return dst, rows + 1, pos
}

// BlockLen returns the row and column counts of the block at the front
// of b and its length, checking every column's header and length
// against b without visiting a value.
func BlockLen(b []byte) (rows, cols, n int, err error) {
	rows, cols, n, err = blockHeader(b)
	for c := 0; c < cols && err == nil; c++ {
		var used int
		_, used, err = parseColumn(b[n:], rows)
		n += used
	}
	return rows, cols, n, err
}

// blockHeader parses a block header: rows, columns, and its length.
func blockHeader(b []byte) (rows, cols, pos int, err error) {
	r, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, 0, errBadHeader
	}
	c, k2 := binary.Uvarint(b[k:])
	// Each column takes at least its tag byte.
	if k2 <= 0 || c > uint64(len(b)) || r > maxBlockValues || (r > 1 && r*max(c, 1) > maxBlockValues) {
		return 0, 0, 0, errBadHeader
	}
	return int(r), int(c), k + k2, nil
}

// column is one parsed column of a block.
type column struct {
	kind   Kind
	nulls  []byte // the NULL bitmap; nil when the column holds no NULL
	kinds  []byte // a mixed column's row kinds
	width  int
	base   uint64
	words  []byte
	region []byte // the string bytes
}

// parseColumn parses the column at the front of b, checking its header
// and its length against b, and returns it with its encoded length.
func parseColumn(b []byte, rows int) (c column, pos int, err error) {
	if len(b) == 0 {
		return c, 0, errTruncated
	}
	tag := b[0]
	if c.kind, pos = Kind(tag&^nullFlag), 1; c.kind > kindMixed || c.kind == KindNull && tag != 0 {
		return c, 0, fmt.Errorf("types: bad column tag %#x", tag)
	}
	if c.kind == KindNull {
		return c, pos, nil
	}
	cut := func(n int) []byte { // the next n bytes, or nil when b is short
		if n < 0 || n > len(b)-pos {
			err = errTruncated
			return nil
		}
		pos += n
		return b[pos-n : pos]
	}
	if tag&nullFlag != 0 {
		c.nulls = cut((rows + 7) / 8)
	}
	if c.kind == kindMixed {
		c.kinds = cut(rows)
	}
	w := cut(1)
	if err != nil {
		return c, 0, err
	}
	if c.width = int(w[0]); c.width > 8 || c.width&(c.width-1) != 0 {
		return c, 0, fmt.Errorf("types: bad column width %d", c.width)
	}
	base, k := binary.Varint(b[pos:])
	if k <= 0 {
		return c, 0, errTruncated
	}
	c.base, pos = uint64(base), pos+k
	c.words = cut(rows * c.width)
	if c.kind == KindString || c.kind == kindMixed {
		n, k := binary.Uvarint(b[min(pos, len(b)):]) // pos is past b when the words are cut
		if k <= 0 || n > uint64(len(b)) {
			return c, 0, errTruncated
		}
		pos += k
		c.region = cut(int(n))
	}
	return c, pos, err
}

// fits reports whether v can join the column's rows rows keeping its
// tag: a value of its kind (any kind if mixed), a NULL if it has a
// bitmap. A string column must also end where AppendBlock ends it.
func (c *column) fits(v Value, rows int) bool {
	switch {
	case c.kind == KindString && c.word(rows-1) != uint64(len(c.region)):
		return false
	case v.kind == KindNull:
		return c.kind == KindNull || c.nulls != nil
	case c.kind == kindMixed:
		return c.width == 8 && c.base == 0
	}
	return v.kind == c.kind
}

// relayout returns the base and width of the column's words once v, which
// fits, joins its rows rows: AppendBlock's choice for them all.
func (c *column) relayout(v Value, rows int) (base uint64, w int) {
	switch {
	case c.kind == KindString:
		return 0, width(uint64(len(c.region)) + uint64(v.n)) // a NULL's n is 0
	case c.kind == kindMixed || v.kind == KindNull:
		return c.base, c.width
	case v.n >= int64(c.base) && uint64(v.n)-c.base <= maxField(c.width):
		return c.base, c.width
	}
	lo, hi := v.n, v.n
	for i := range rows {
		if !c.null(i) {
			x := int64(c.word(i))
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	return uint64(lo), width(uint64(hi) - uint64(lo))
}

// null reports whether the column's row i is NULL by its bitmap.
func (c *column) null(i int) bool { return c.nulls != nil && c.nulls[i/8]&(1<<(i%8)) != 0 }

// appendRow appends the column with v, which fits, added after its rows
// rows, rewriting its words when v moves their base or widens them.
func (c *column) appendRow(dst []byte, rows int, v Value) []byte {
	if c.kind == KindNull {
		return append(dst, byte(KindNull))
	}
	if c.nulls == nil {
		dst = append(dst, byte(c.kind))
	} else {
		dst = append(append(dst, byte(c.kind)|nullFlag), c.nulls...)
		if rows%8 == 0 {
			dst = append(dst, 0)
		}
		bit := byte(1) << (rows % 8)
		if dst[len(dst)-1] &^= bit; v.kind == KindNull {
			dst[len(dst)-1] |= bit
		}
	}
	if c.kinds != nil {
		dst = append(append(dst, c.kinds...), byte(v.kind))
	}
	base, w := c.relayout(v, rows)
	dst = append(dst, byte(w))
	dst = binary.AppendVarint(dst, int64(base))
	if base == c.base && w == c.width {
		dst = append(dst, c.words...)
	} else {
		for i := range rows {
			f := c.word(i) - base
			if c.kind != KindString && c.null(i) {
				f = 0
			}
			dst = appendUint(dst, f, w)
		}
	}
	end := uint64(len(c.region))
	dst = appendUint(dst, field(c.kind, base, v, end), w)
	if c.kind == KindString || c.kind == kindMixed {
		var s string
		if v.kind == KindString {
			s = v.str()
		}
		dst = binary.AppendUvarint(dst, end+uint64(len(s)))
		dst = append(append(dst, c.region...), s...)
	}
	return dst
}

// word returns row i's word, 0 before row 0.
func (c *column) word(i int) uint64 {
	if i < 0 {
		return 0
	}
	return c.base + uintAt(c.words, i, c.width)
}

// strBytes checks the string offsets bounding each run of selected rows
// in [lo, hi) (sel nil: every row) and returns how many string bytes
// decoding those rows copies: all of a mixed column's.
func (c *column) strBytes(sel []uint64, lo, hi int) (int, error) {
	switch c.kind {
	case kindMixed:
		return len(c.region), nil
	case KindString:
		n := 0
		for a, b := nextRun(sel, lo, hi); a < hi; a, b = nextRun(sel, b, hi) {
			from, to := c.word(a-1), c.word(b-1)
			if from > to || to > uint64(len(c.region)) {
				return 0, errBadOffset
			}
			n += int(to - from)
		}
		return n, nil
	}
	return 0, nil
}

// decode fills every stride-th value of vals, from the first, with the
// selected rows in [lo, hi) of the column (sel nil: every row), of
// which there is at least one, copying the strings they hold to the end
// of slab: for each run of selected rows one copy of the string bytes it
// spans, or a mixed column's string bytes once.
func (c *column) decode(vals []Value, stride int, sel []uint64, lo, hi int, slab []byte) ([]byte, error) {
	if c.kind == KindNull {
		for j := 0; j < len(vals); j += stride {
			vals[j] = Value{}
		}
		return slab, nil
	}
	at := len(slab) // slab index of a mixed column's string byte 0
	if c.kind == kindMixed {
		slab = append(slab, c.region...)
	}
	var err error
	for a, b := nextRun(sel, lo, hi); a < hi && err == nil; a, b = nextRun(sel, b, hi) {
		slab, err = c.decodeRun(vals, stride, a, b, slab, at)
		vals = vals[min(len(vals), (b-a)*stride):]
	}
	return slab, err
}

// decodeRun is decode for every row of [lo, hi), a mixed column's string
// bytes lying in slab from index at.
func (c *column) decodeRun(vals []Value, stride, lo, hi int, slab []byte, at int) ([]byte, error) {
	for i, j := lo, 0; i < hi; i, j = i+1, j+stride {
		vals[j] = Value{kind: c.kind, n: int64(c.base + uintAt(c.words, i, c.width))}
	}
	switch c.kind {
	case KindString:
		from, last := c.word(lo-1), c.word(hi-1) // checked by strBytes
		at := len(slab) - int(from)              // slab index of string byte 0
		slab = append(slab, c.region[from:last]...)
		for i, j, prev := lo, 0, from; i < hi; i, j = i+1, j+stride {
			end := uint64(vals[j].n)
			if end < prev || end > last {
				return slab, errBadOffset
			}
			if vals[j].n = int64(end - prev); end > prev {
				vals[j].p = &slab[at+int(prev)]
			}
			prev = end
		}
	case kindMixed:
		for i, j := lo, 0; i < hi; i, j = i+1, j+stride {
			v, err := c.value(i)
			if err != nil {
				return slab, err
			}
			if v.p != nil { // a string: point it into the slab's copy
				v.p = &slab[at+int(c.word(i)&math.MaxUint32)]
			}
			vals[j] = v
		}
	}
	if c.nulls != nil {
		for i, j := lo, 0; i < hi; i, j = i+1, j+stride {
			if c.null(i) {
				vals[j] = Value{}
			}
		}
	}
	return slab, nil
}

// A Conjunct is one "column op literal" test a block decode applies to
// its rows before decoding any: a row passes when its value in column
// Col is not NULL and Compare orders it against Lit with an outcome in
// Pass — exactly when SQL's "value op Lit" holds.
type Conjunct struct {
	Col  int
	Lit  Value
	Pass Outcomes
}

// Outcomes is a set of Compare outcomes.
type Outcomes uint8

// The outcomes of Compare(value, literal): below, equal, above.
const (
	Below Outcomes = 1 << iota
	Equals
	Above
)

// filter clears in sel every row of [lo, hi) whose value in the column
// fails f. An integer, date or boolean column tested against such a
// literal compares its words; any other reads each selected row's value
// — pointing into the block, checked like decode checks it — and calls
// Compare.
func (c *column) filter(sel []uint64, lo, hi int, f Conjunct) error {
	if c.onWords(f) {
		for i := lo; i < hi; i++ {
			x := int64(c.base + uintAt(c.words, i, c.width))
			if c.null(i) || f.Pass&(1<<(cmp.Compare(x, f.Lit.n)+1)) == 0 {
				sel[i/64] &^= 1 << (i % 64)
			}
		}
		return nil
	}
	for i := lo; i < hi; i++ {
		if sel[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		v := Value{kind: c.kind, n: int64(c.base + uintAt(c.words, i, c.width))}
		if c.kind == KindString || c.kind == kindMixed {
			var err error
			if v, err = c.value(i); err != nil {
				return err
			}
		}
		if c.null(i) || v.kind == KindNull || f.Pass&(1<<(Compare(v, f.Lit)+1)) == 0 {
			sel[i/64] &^= 1 << (i % 64)
		}
	}
	return nil
}

// onWords reports whether f is tested on the column's words: Compare
// orders an integer, date or boolean against another by payload alone.
func (c *column) onWords(f Conjunct) bool { return intLike(c.kind) && intLike(f.Lit.kind) }

func intLike(k Kind) bool { return k == KindInt || k == KindDate || k == KindBool }

// value returns row i of a string or mixed column, its string pointing
// into the block, checking its kind and offsets.
func (c *column) value(i int) (Value, error) {
	word := c.word(i)
	if c.kind == KindString {
		from := c.word(i - 1)
		if from > word || word > uint64(len(c.region)) {
			return Value{}, errBadOffset
		}
		return strAt(c.region, from, word-from), nil
	}
	switch k := Kind(c.kinds[i]); {
	case k >= kindMixed:
		return Value{}, fmt.Errorf("types: unknown kind %d", k)
	case k == KindNull:
		return Value{}, nil
	case k != KindString:
		return Value{kind: k, n: int64(word)}, nil
	case word&math.MaxUint32+word>>32 > uint64(len(c.region)):
		return Value{}, errBadOffset
	}
	return strAt(c.region, word&math.MaxUint32, word>>32), nil
}

// strAt returns the string of the n bytes of b from index from.
func strAt(b []byte, from, n uint64) Value {
	if n == 0 {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: &b[from], n: int64(n)}
}

// nextRun returns the first run [a, b) of rows selected in sel (nil:
// every row) from row i on and below hi, or a == hi when there is none.
// It inlines, so an unfiltered decode pays no call for it.
func nextRun(sel []uint64, i, hi int) (a, b int) {
	if sel == nil {
		return i, hi
	}
	return selectedRun(sel, i, hi)
}

// selectedRun is nextRun for a non-nil sel.
func selectedRun(sel []uint64, i, hi int) (a, b int) {
	a = nextBit(sel, i, hi, 0)
	return a, nextBit(sel, a, hi, ^uint64(0))
}

// nextBit returns the first row from i on, below hi, whose bit in sel
// differs from flip's, or hi.
func nextBit(sel []uint64, i, hi int, flip uint64) int {
	for i < hi {
		if w := (sel[i/64] ^ flip) >> (i % 64); w != 0 {
			return min(i+bits.TrailingZeros64(w), hi)
		}
		i = (i | 63) + 1
	}
	return hi
}

// DecodeBlock is the one decoder of the system: heap pages, wire
// batches, statistics and spill runs all decode through it. It appends
// rows [lo, hi) of the block at the front of buf to dst — every row from
// lo on when hi < 0 or past the block's end — keeping only the columns
// at positions cols (strictly ascending; nil keeps every column) and
// only the rows that pass every conjunct of where, and returns dst and
// the block's length. The conjuncts are tested on the column words of
// rows [lo, hi) before any value is decoded, and only the rows passing
// them all are decoded. Every column's header and length is checked
// against buf, and every string offset of a tested row or of a kept
// column the passing rows use; an unkept, untested column's values are
// never visited. Corrupt bytes return an error and dst as it was, never
// a panic. The rows' values are made in a, and their strings copied
// into it, one copy of the kept string bytes of each run of passing
// rows: they do not alias buf, and they last until a is Reset (a nil a
// decodes into fresh memory of the exact size). A zero-width row is
// still a row, never nil.
func DecodeBlock(dst []Tuple, a *Arena, buf []byte, cols []int, lo, hi int, where ...Conjunct) ([]Tuple, int, error) {
	rows, ncols, pos, err := blockHeader(buf)
	if err != nil {
		return dst, 0, err
	}
	if hi < 0 || hi > rows {
		hi = rows
	}
	lo = max(0, min(lo, hi))
	kept := len(cols)
	if cols == nil {
		kept = ncols
	} else if kept > 0 && cols[kept-1] >= ncols {
		return dst, 0, errMissingColumn
	}
	for _, f := range where {
		if f.Col < 0 || f.Col >= ncols {
			return dst, 0, errMissingColumn
		}
	}
	// Pass 1: every column's header and length and, without conjuncts,
	// the kept strings' offsets.
	start := pos
	for c, k := 0, 0; c < ncols; c++ {
		col, used, err := parseColumn(buf[pos:], rows)
		if err != nil {
			return dst, 0, err
		}
		pos += used
		if keeps(cols, c, &k) && len(where) == 0 {
			if _, err := col.strBytes(nil, lo, hi); err != nil {
				return dst, 0, err
			}
		}
	}
	end, n := pos, hi-lo
	// The conjuncts, on the tested columns' words: sel marks the rows
	// passing so far.
	var sel []uint64
	if len(where) > 0 && n > 0 {
		var mark [maxBlockValues / 64]uint64
		sel = mark[:(hi+63)/64]
		for i := lo; i < hi; i++ {
			sel[i/64] |= 1 << (i % 64)
		}
		// The word tests first: the others then read fewer rows.
		for _, words := range [2]bool{true, false} {
			pos = start
			for c := range ncols {
				col, used, _ := parseColumn(buf[pos:], rows) // checked by pass 1
				pos += used
				for _, f := range where {
					if f.Col != c || col.onWords(f) != words {
						continue
					}
					if err := col.filter(sel, lo, hi, f); err != nil {
						return dst, 0, err
					}
				}
			}
		}
		n = 0
		for _, w := range sel {
			n += bits.OnesCount64(w)
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, n)
	if kept == 0 || n == 0 {
		for range n {
			dst = append(dst, Tuple{})
		}
		return dst, end, nil
	}
	// The kept strings' offsets of the passing rows, checked before any
	// row is decoded.
	for c, k, at := 0, 0, start; sel != nil && k < kept; c++ {
		col, used, _ := parseColumn(buf[at:], rows) // checked by pass 1
		at += used
		if keeps(cols, c, &k) {
			if _, err := col.strBytes(sel, lo, hi); err != nil {
				return dst, 0, err
			}
		}
	}
	// Pass 2: the kept columns, one at a time, into row-major tuples, a
	// window of rows at a time whose values fit one chunk of a (fresh
	// memory takes every row at once).
	win := n
	if a != nil {
		win = max(1, valueChunks.most/kept)
	}
	for wlo := lo; ; {
		whi, m := window(sel, wlo, hi, win)
		if m == 0 {
			return dst, end, nil
		}
		strs := 0
		for c, k, at := 0, 0, start; k < kept; c++ {
			col, used, _ := parseColumn(buf[at:], rows) // checked by pass 1
			at += used
			if keeps(cols, c, &k) {
				s, _ := col.strBytes(sel, wlo, whi) // checked above
				strs += s
			}
		}
		var (
			vals []Value
			slab []byte
		)
		if a == nil {
			vals, slab = make([]Value, m*kept), make([]byte, 0, strs)
		} else {
			vals, slab = a.Make(m*kept), a.bytes(strs)
		}
		for r := range m {
			dst = append(dst, vals[r*kept:(r+1)*kept:(r+1)*kept])
		}
		for c, k, at := 0, 0, start; k < kept; c++ {
			col, used, _ := parseColumn(buf[at:], rows) // checked by pass 1
			at += used
			if !keeps(cols, c, &k) {
				continue
			}
			if slab, err = col.decode(vals[k-1:], kept, sel, wlo, whi, slab); err != nil {
				return dst[:base], 0, err
			}
		}
		wlo = whi
	}
}

// window returns the end of the window of rows from lo that holds the
// next (at most) win rows selected in sel (nil: every row) below hi,
// and how many it holds.
func window(sel []uint64, lo, hi, win int) (end, m int) {
	if sel == nil {
		end = min(lo+win, hi)
		return end, end - lo
	}
	for i := lo; i < hi; i++ {
		if sel[i/64]&(1<<(i%64)) != 0 {
			if m == win {
				return i, m
			}
			m++
		}
	}
	return hi, m
}

// keeps reports whether column c is among cols (nil: every column),
// advancing *k past it when so; *k counts the kept columns before c.
func keeps(cols []int, c int, k *int) bool {
	if cols != nil && (*k >= len(cols) || cols[*k] != c) {
		return false
	}
	*k++
	return true
}
