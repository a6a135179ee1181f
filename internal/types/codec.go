package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
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
func DecodeTuple(buf []byte) (Tuple, int, error) {
	var s Slab
	used, err := s.Measure(buf)
	if err != nil {
		return nil, 0, err
	}
	t, _ := s.Decode(buf)
	return t, used, nil
}

// Slab decodes a group of encoded tuples — a heap page, a wire batch —
// into two allocations, one []Value holding every tuple's values back
// to back and one []byte holding every string's bytes, instead of one
// of each per row and per string. Both are sized exactly: Measure every
// tuple first, then Decode the same tuples in the same order. The
// decoded tuples do not alias the encoded bytes, and a slab is plain
// garbage-collected memory, live for as long as any tuple (or copied
// Value) carved from it is, and never reused.
type Slab struct {
	nvals, nstr int // measured, not yet carved
	vals        []Value
	str         []byte
}

var (
	errBadHeader       = errors.New("types: bad tuple header")
	errTruncatedTuple  = errors.New("types: truncated tuple")
	errTruncatedVarint = errors.New("types: truncated varint")
	errTruncatedFloat  = errors.New("types: truncated float")
	errTruncatedString = errors.New("types: truncated string")
)

// Measure validates the tuple encoded at the front of buf, adds its
// size to the slab's, and returns its encoded length.
func (s *Slab) Measure(buf []byte) (int, error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, errBadHeader
	}
	for i := uint64(0); i < n; i++ {
		if pos >= len(buf) {
			return 0, errTruncatedTuple
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			_, k := binary.Varint(buf[pos:])
			if k <= 0 {
				return 0, errTruncatedVarint
			}
			pos += k
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, errTruncatedFloat
			}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			if k <= 0 || l > uint64(len(buf)-pos-k) {
				return 0, errTruncatedString
			}
			pos += k + int(l)
			s.nstr += int(l)
		default:
			return 0, fmt.Errorf("types: unknown kind %d", kind)
		}
	}
	s.nvals += int(n) // n <= len(buf): every value took at least a byte
	return pos, nil
}

// Decode carves the tuple encoded at the front of buf out of the slab
// and returns it with its encoded length. buf must hold bytes a Measure
// call accepted, and every Measure must precede the first Decode;
// anything else is a caller bug and panics on the slab's bounds.
func (s *Slab) Decode(buf []byte) (Tuple, int) {
	if s.vals == nil {
		s.vals = make([]Value, s.nvals)
		s.str = make([]byte, 0, s.nstr)
	}
	n, pos := binary.Uvarint(buf)
	t := s.vals[:n:n]
	s.vals = s.vals[n:]
	for i := range t {
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindInt, KindDate, KindBool:
			v, k := binary.Varint(buf[pos:])
			pos += k
			t[i] = Value{kind: kind, n: v}
		case KindFloat:
			t[i] = Value{kind: kind, n: int64(binary.LittleEndian.Uint64(buf[pos:]))}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			pos += k
			if l > 0 {
				off := len(s.str)
				s.str = append(s.str, buf[pos:pos+int(l)]...)
				pos += int(l)
				t[i] = Value{kind: kind, p: unsafe.SliceData(s.str[off:]), n: int64(l)}
			} else {
				t[i] = Value{kind: kind}
			}
		}
	}
	return t, pos
}
