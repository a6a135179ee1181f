package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// EncodeTuple appends a compact binary encoding of the tuple to dst and
// returns the extended slice. The encoding is self-describing (kind
// tags) and is shared by the storage pages and the client/server wire,
// so that shipping a row across the middleware/DBMS boundary costs real
// serialization work, as it does over JDBC.
func EncodeTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			dst = binary.AppendVarint(dst, v.n)
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(v.n))
			dst = append(dst, v.str()...)
		}
	}
	return dst
}

// DecodeTuple decodes one tuple from buf, returning the tuple and the
// number of bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) { return DecodeColumns(buf, nil) }

// DecodeColumns decodes the tuple encoded at the front of buf keeping
// only the columns at positions cols, as a Decoder does, and returns it
// with its encoded length.
func DecodeColumns(buf []byte, cols []int) (Tuple, int, error) {
	d := NewDecoder(1, cols)
	t, used, err := d.Decode(buf)
	if err != nil {
		return nil, 0, err
	}
	d.Own([]Tuple{t})
	return t, used, nil
}

// A Decoder decodes a group of encoded tuples — the records of a heap
// page, the rows of a wire batch — in one validating pass, keeping only
// the columns at positions cols (strictly ascending; nil keeps every
// column). Every value is validated, kept or not. The tuples' values
// are carved from one slab sized for the group, and the bytes of their
// kept strings point into the encoded bytes until Own copies them into
// one exactly sized slab, allocated only when a kept string is
// non-empty. A slab is plain garbage-collected memory, live for as long
// as any tuple (or copied Value) carved from it is, and never reused.
type Decoder struct {
	cols []int   // positions to keep; nil keeps all
	vals []Value // slab the next tuples are carved from
	left int     // tuples still expected, to size the slab
	strs int     // bytes of kept strings still pointing into the source
}

// NewDecoder returns a decoder for a group of n tuples keeping the
// columns at positions cols. n only sizes the value slab: a group of a
// different length decodes the same, in more or larger allocations.
func NewDecoder(n int, cols []int) Decoder { return Decoder{cols: cols, left: n} }

// maxSlab caps one value slab, so a corrupt tuple count cannot make the
// decoder allocate more than this many values before it fails.
const maxSlab = 1 << 16

var (
	errBadHeader       = errors.New("types: bad tuple header")
	errTruncatedTuple  = errors.New("types: truncated tuple")
	errTruncatedVarint = errors.New("types: truncated varint")
	errTruncatedFloat  = errors.New("types: truncated float")
	errTruncatedString = errors.New("types: truncated string")
	errMissingColumn   = errors.New("types: tuple lacks a decoded column")
)

// Decode validates the tuple encoded at the front of buf, carves its
// kept columns out of the slab and returns it with its encoded length.
// Its kept strings alias buf until Own runs.
func (d *Decoder) Decode(buf []byte) (Tuple, int, error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return nil, 0, errBadHeader
	}
	width := len(d.cols)
	if d.cols == nil {
		if n > uint64(len(buf)-pos) {
			// Every value takes at least a byte, so the tuple is cut
			// short; a pass keeping nothing finds where.
			_, _, err := (&Decoder{cols: []int{}}).Decode(buf)
			return nil, 0, err
		}
		width = int(n)
	}
	t := Tuple{} // a zero-width row is still a row, never nil
	if width > 0 {
		if len(d.vals) < width {
			d.vals = make([]Value, max(width, min(width*d.left, maxSlab)))
		}
		t = d.vals[:width:width]
	}
	k := 0 // kept so far
	for i := 0; uint64(i) < n; i++ {
		if pos >= len(buf) {
			return nil, 0, errTruncatedTuple
		}
		kind := Kind(buf[pos])
		pos++
		v := Value{kind: kind}
		switch kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			// binary.Varint, with the Uvarint it calls inlined.
			ux, m := binary.Uvarint(buf[pos:])
			if m <= 0 {
				return nil, 0, errTruncatedVarint
			}
			pos += m
			v.n = int64(ux >> 1)
			if ux&1 != 0 {
				v.n = ^v.n
			}
		case KindFloat:
			if pos+8 > len(buf) {
				return nil, 0, errTruncatedFloat
			}
			v.n = int64(binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		case KindString:
			l, m := binary.Uvarint(buf[pos:])
			if m <= 0 || l > uint64(len(buf)-pos-m) {
				return nil, 0, errTruncatedString
			}
			pos += m
			if l > 0 {
				v.p, v.n = &buf[pos], int64(l)
			}
			pos += int(l)
		default:
			return nil, 0, fmt.Errorf("types: unknown kind %d", kind)
		}
		switch {
		case d.cols == nil:
			t[i] = v
		case k < width && d.cols[k] == i:
			t[k] = v
			k++
		default:
			continue
		}
		if kind == KindString {
			d.strs += int(v.n)
		}
	}
	if d.cols != nil && k < width {
		return nil, 0, errMissingColumn
	}
	d.vals = d.vals[width:]
	d.left--
	return t, pos, nil
}

// Own copies the kept strings of rows — every tuple Decode returned
// since the last Own — out of the encoded bytes into one slab of their
// own, so the encoded bytes may change once it returns.
func (d *Decoder) Own(rows []Tuple) {
	if d.strs == 0 {
		return
	}
	str := make([]byte, 0, d.strs)
	for _, t := range rows {
		for i, v := range t {
			if v.kind == KindString && v.n > 0 {
				off := len(str)
				str = append(str, v.str()...)
				t[i].p = &str[off]
			}
		}
	}
	d.strs = 0
}
