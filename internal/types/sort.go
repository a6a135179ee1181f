package types

import (
	"cmp"
	"slices"
)

// SortTuples sorts rows in place by the given key column indexes;
// desc[i], when provided, reverses key i. The sort is stable and orders
// values as Compare does. It is the one row sort of the system: SORT^M
// (which the engine's ORDER BY and merge join run too) and
// Relation.SortBy come here. (TAGGR^M's internal sort orders integer
// period ends, not rows.)
func SortTuples(rows []Tuple, keys []int, desc []bool) {
	if len(rows) < 2 {
		return
	}
	SortTuplesFunc(rows, len(keys), func(t Tuple, k int) Value {
		if keys[k] >= len(t) {
			return Null
		}
		return t[keys[k]]
	}, desc)
}

// A sort of at most smallKeys keys whose rows × keys is at most
// smallSort runs the comparator on stack buffers and allocates nothing:
// an ORDER BY of a few rows, or the last short run of a SORT^M. Below
// this size the radix sort's 256-entry count tables and allocations
// cost more than the comparisons they save.
const smallSort, smallKeys = 64, 4

// SortTuplesFunc is SortTuples over computed keys: key(t, k) is the
// k-th of row t's w sort keys. key is called exactly once for every key
// of every row, even when there is nothing to reorder, so a caller can
// collect evaluation errors through it.
//
// What gets sorted is a permutation of row positions, applied to rows at
// the end. Each key becomes one uint64 word per row whose unsigned order
// is Compare's order (desc complements it):
//   - integers, dates and booleans: the payload with its sign bit flipped;
//   - floats: the IEEE bits, sign-flipped when positive and complemented
//     when negative, with -0 made +0 and every NaN one word above +Inf;
//   - strings: the 7 bytes after the column's longest common prefix, then
//     min(remaining length, 8) — exact when at most 7 bytes remain;
//   - a column holding NULL gets one more significant pass that ranks
//     NULL first.
//
// A stable LSD radix sort then orders the permutation one byte at a
// time, least significant key first, skipping every byte that is the
// same in all rows. Rows whose words tie through an inexact string key
// are re-sorted from that key with the comparator. A column mixing
// int and float, or numbers and strings, is not encoded, and then the
// whole sort is the comparator's, as are small sorts. Either way the
// input position breaks the last tie, so the result is the stable one.
func SortTuplesFunc(rows []Tuple, w int, key func(t Tuple, k int) Value, desc []bool) {
	n := len(rows)
	if n < 2 || w == 0 {
		for _, t := range rows {
			for k := 0; k < w; k++ {
				key(t, k)
			}
		}
		return
	}
	if n*w <= smallSort && w <= smallKeys {
		sortSmall(rows, w, key, desc)
		return
	}
	var colBuf [smallKeys]keyCol
	cols := colBuf[:0]
	if w > len(colBuf) {
		cols = make([]keyCol, 0, w)
	}
	for k := 0; k < w; k++ {
		cols = append(cols, keyCol{desc: k < len(desc) && desc[k]})
	}

	words := make([]uint64, n*w)
	for k := range cols {
		cols[k].words = words[k*n : (k+1)*n]
	}
	for i, t := range rows {
		for k := range cols {
			c := &cols[k]
			v := key(t, k)
			c.words[i] = uint64(v.n)
			if i == 0 {
				c.first, c.seen, c.plain = v.kind, 1<<v.kind, v.kind != KindString
			}
			if !c.plain || v.kind != c.first {
				c.keep(i, v)
			}
		}
	}
	if n <= 1<<16 {
		sortWords[uint16](rows, cols)
	} else {
		sortWords[int32](rows, cols)
	}
}

// rowIndex is a row position. It is two bytes wide while the rows
// allow it, which halves the permutations a sort moves and allocates.
type rowIndex interface{ uint16 | int32 }

// sortWords orders rows by the keys extracted into cols: with the
// comparator when a column cannot be encoded, else by the radix passes
// and the tie fix-up.
func sortWords[I rowIndex](rows []Tuple, cols []keyCol) {
	n := len(rows)
	buf := make([]I, 2*n)
	perm, tmp := buf[:n], buf[n:]
	for i := range perm {
		perm[i] = I(i)
	}
	encodable := true
	for k := range cols {
		encodable = encodable && cols[k].encodable()
	}
	if !encodable {
		slices.SortFunc(perm, func(a, b I) int { return compareFrom(cols, int(a), int(b), 0) })
		permute(rows, perm)
		return
	}
	for k := len(cols) - 1; k >= 0; k-- {
		c := &cols[k]
		c.encode()
		perm, tmp = radixSort(perm, tmp, c.words)
		if c.kinds != nil && c.seen&(1<<KindNull) != 0 {
			nullPass(tmp, perm, c)
			perm, tmp = tmp, perm
		}
	}
	fixTies(cols, perm, 0)
	permute(rows, perm)
}

// sortSmall is SortTuplesFunc for at most smallKeys keys and smallSort
// key values in all: the comparator, all on the stack. A key whose
// values are all integers, dates or booleans is encoded, so it compares
// as words.
func sortSmall(rows []Tuple, w int, key func(t Tuple, k int) Value, desc []bool) {
	var cols [smallKeys]keyCol
	var vals [smallSort]Value
	var words [smallSort]uint64
	var perm [smallSort]uint16
	n := len(rows)
	for k := range w {
		cols[k] = keyCol{vals: vals[k*n : (k+1)*n], words: words[k*n : (k+1)*n], desc: k < len(desc) && desc[k]}
	}
	for i, t := range rows {
		for k := range w {
			vals[k*n+i] = key(t, k)
		}
		perm[i] = uint16(i)
	}
	for k := range w {
		c := &cols[k]
		for i, v := range c.vals {
			c.words[i] = uint64(v.n)
			c.seen |= 1 << v.kind
		}
		if c.seen&^intKinds == 0 {
			c.encode()
		}
	}
	slices.SortFunc(perm[:n], func(a, b uint16) int { return compareFrom(cols[:w], int(a), int(b), 0) })
	permute(rows, perm[:n])
}

// keyCol is one sort key across all rows.
type keyCol struct {
	words []uint64 // per row: the raw payload, then (encode) the word
	vals  []Value  // per row, once the column holds a string (all rows of a small sort)
	kinds []Kind   // per row, once a second kind appears; else every row is first
	first Kind
	seen  uint8 // bit set of the kinds in the column
	plain bool  // words and first alone describe the column so far
	desc  bool
	exact bool // encoded, and word order is exactly Compare's
}

// keep records what words cannot hold: the value of a string, and the
// kind of each row once the column has more than one.
func (c *keyCol) keep(i int, v Value) {
	c.seen |= 1 << v.kind
	if v.kind != c.first && c.kinds == nil {
		c.kinds = make([]Kind, len(c.words))
		for j := range i {
			c.kinds[j] = c.first
		}
		c.plain = false
	}
	if c.kinds != nil {
		c.kinds[i] = v.kind
	}
	if v.kind == KindNull {
		c.words[i] = 0
	}
	if v.kind == KindString && c.vals == nil {
		vals := make([]Value, len(c.words))
		for j := range i {
			vals[j] = c.value(j)
		}
		c.vals = vals
	}
	if c.vals != nil {
		c.vals[i] = v
	}
}

// kind is row i's kind.
func (c *keyCol) kind(i int) Kind {
	if c.kinds != nil {
		return c.kinds[i]
	}
	return c.first
}

// value is row i's key; a non-string is rebuilt from its kind and
// payload, which is all it is.
func (c *keyCol) value(i int) Value {
	if c.vals != nil {
		return c.vals[i]
	}
	return Value{kind: c.kind(i), n: int64(c.words[i])}
}

// nullRank orders NULL before every other value, or after when desc.
func (c *keyCol) nullRank(i int) uint8 {
	var r uint8
	if c.kind(i) != KindNull {
		r = 1
	}
	if c.desc {
		r ^= 1
	}
	return r
}

const intKinds = 1<<KindInt | 1<<KindDate | 1<<KindBool

// nonNull is the set of kinds in the column other than NULL.
func (c *keyCol) nonNull() uint8 { return c.seen &^ (1 << KindNull) }

// encodable reports whether the column's values all map to words: its
// non-NULL values are all integers, dates and booleans, all floats, or
// all strings.
func (c *keyCol) encodable() bool {
	kinds := c.nonNull()
	return kinds&^intKinds == 0 || kinds == 1<<KindFloat || kinds == 1<<KindString
}

// encode replaces the raw payloads by order-preserving words. NULL rows
// end up with one shared word, which nullPass then ranks.
func (c *keyCol) encode() {
	c.exact = true
	switch c.nonNull() {
	case 1 << KindFloat:
		for i, x := range c.words {
			switch {
			case x == 1<<63: // -0 equals +0
				x = 0
			case x&^(1<<63) > 0x7ff0000000000000: // NaN
				x = nanBits
			}
			if x>>63 != 0 {
				c.words[i] = ^x
			} else {
				c.words[i] = x | 1<<63
			}
		}
	case 1 << KindString:
		c.encodeStrings()
	default: // integers, dates, booleans, or all NULL
		for i := range c.words {
			c.words[i] ^= 1 << 63
		}
	}
	if c.desc {
		for i := range c.words {
			c.words[i] = ^c.words[i]
		}
	}
}

// encodeStrings strips the column's longest common prefix — keys like
// "Employee 123" share their first bytes, which would leave no byte to
// sort on — and encodes what follows.
func (c *keyCol) encodeStrings() {
	prefix, have := "", false
	for _, v := range c.vals {
		if v.kind != KindString {
			continue
		}
		s := v.str()
		if !have {
			prefix, have = s, true
			continue
		}
		j := 0
		for j < len(prefix) && j < len(s) && prefix[j] == s[j] {
			j++
		}
		prefix = prefix[:j]
	}
	for i, v := range c.vals {
		s := v.str()
		if v.kind == KindString {
			s = s[len(prefix):]
		}
		c.words[i] = strWord(s)
		c.exact = c.exact && len(s) <= 7
	}
}

// strWord is s's first 7 bytes, big-endian, over min(len(s), 8).
func strWord(s string) uint64 {
	if len(s) >= 8 {
		return (uint64(s[0])<<56|uint64(s[1])<<48|uint64(s[2])<<40|uint64(s[3])<<32|
			uint64(s[4])<<24|uint64(s[5])<<16|uint64(s[6])<<8|uint64(s[7]))&^0xff | 8
	}
	var x uint64
	for j := 0; j < len(s); j++ {
		x |= uint64(s[j]) << (56 - 8*j)
	}
	return x | uint64(len(s))
}

// long reports whether row i's word leaves bytes of its string out, so
// that rows tying on it may still differ.
func (c *keyCol) long(i int) bool {
	x := c.words[i]
	if c.desc {
		x = ^x
	}
	return x&0xff == 8 && c.kind(i) == KindString
}

// radixSort stably sorts perm by words, least significant byte first,
// passing over only the bytes that differ between rows; tmp is scratch
// of the same length. It returns the sorted permutation and the other
// buffer.
func radixSort[I rowIndex](perm, tmp []I, words []uint64) ([]I, []I) {
	var diff uint64
	for _, x := range words {
		diff |= x ^ words[0]
	}
	var shifts [8]uint
	m := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(diff>>shift) != 0 {
			shifts[m] = shift
			m++
		}
	}
	// One sequential read of words counts every pass's bytes.
	var counts [8][256]int32
	for _, x := range words {
		for j, shift := range shifts[:m] {
			counts[j][byte(x>>shift)]++
		}
	}
	for j, shift := range shifts[:m] {
		count := &counts[j]
		var sum int32
		for b, c := range count {
			count[b], sum = sum, sum+c
		}
		for _, i := range perm {
			b := byte(words[i] >> shift)
			tmp[count[b]] = i
			count[b]++
		}
		perm, tmp = tmp, perm
	}
	return perm, tmp
}

// nullPass stably scatters src into dst by c's NULL rank.
func nullPass[I rowIndex](dst, src []I, c *keyCol) {
	var next [2]int
	for _, i := range src {
		if c.nullRank(int(i)) == 0 {
			next[1]++
		}
	}
	for _, i := range src {
		r := c.nullRank(int(i))
		dst[next[r]] = i
		next[r]++
	}
}

// compareFrom is the one comparator: it orders rows a and b (input
// positions) on keys from, from+1, … and then by position. An encoded
// exact key compares by its words, any other by Compare.
func compareFrom(cols []keyCol, a, b, from int) int {
	for k := from; k < len(cols); k++ {
		c := &cols[k]
		var r int
		if c.exact {
			if c.kinds != nil {
				r = cmp.Compare(c.nullRank(a), c.nullRank(b))
			}
			if r == 0 {
				r = cmp.Compare(c.words[a], c.words[b])
			}
		} else if r = Compare(c.value(a), c.value(b)); c.desc {
			r = -r
		}
		if r != 0 {
			return r
		}
	}
	return cmp.Compare(a, b)
}

// fixTies repairs seg, sorted by words, where words could not decide:
// it finds the first inexact key at or after from, splits seg into runs
// tying on keys from through it, and re-sorts with the comparator each
// run whose strings there really differ. A run whose strings are all
// equal is already in order up to the next inexact key.
func fixTies[I rowIndex](cols []keyCol, seg []I, from int) {
	k := from
	for k < len(cols) && cols[k].exact {
		k++
	}
	if k == len(cols) {
		return
	}
	c := &cols[k]
	for i := 0; i < len(seg); {
		j := i + 1
		for j < len(seg) && tied(cols[from:k+1], int(seg[i]), int(seg[j])) {
			j++
		}
		if run := seg[i:j]; len(run) > 1 {
			if c.long(int(run[0])) && !sameStrings(c, run) {
				slices.SortFunc(run, func(a, b I) int { return compareFrom(cols, int(a), int(b), k) })
			} else {
				fixTies(cols, run, k+1)
			}
		}
		i = j
	}
}

// tied reports whether rows a and b have equal words and NULL ranks on
// every key of cols.
func tied(cols []keyCol, a, b int) bool {
	for k := range cols {
		c := &cols[k]
		if c.words[a] != c.words[b] || c.kinds != nil && c.nullRank(a) != c.nullRank(b) {
			return false
		}
	}
	return true
}

// sameStrings reports whether every row of run holds the same string
// in c.
func sameStrings[I rowIndex](c *keyCol, run []I) bool {
	s := c.vals[run[0]].str()
	for _, i := range run[1:] {
		if c.vals[i].str() != s {
			return false
		}
	}
	return true
}

// permute applies perm to rows in place, one cycle at a time: perm[j]
// is the position whose row belongs at j, and j once j is settled.
func permute[I rowIndex](rows []Tuple, perm []I) {
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		t := rows[i]
		for j := i; ; {
			src := int(perm[j])
			perm[j] = I(j)
			if src == i {
				rows[j] = t
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
}
