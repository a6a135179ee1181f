package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 24 {
		t.Fatalf("Value is %d bytes, want <= 24", sz)
	}
}

// identical is bit-for-bit equality: same kind and same payload, with
// floats compared on their bits so NaN and -0.0 are told apart.
func identical(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindNull:
		return true
	case KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case KindString:
		return a.AsString() == b.AsString()
	default:
		return a.AsInt() == b.AsInt()
	}
}

// edgeValues holds the payloads a representation change is most likely
// to get wrong.
var edgeValues = []Value{
	Null, Str(""), Str("x"), Str("O'Hara\n\x00"), Str("2"),
	Int(0), Int(-1), Int(2), Int(math.MinInt64), Int(math.MaxInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(2), Float(2.5),
	Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
	Bool(true), Bool(false), Date(0), Date(2), Date(-1), Date(9862),
}

// tupleGen makes quick.Check draw tuples from the edge values and
// random payloads of every kind.
type tupleGen Tuple

func (tupleGen) Generate(rng *rand.Rand, size int) reflect.Value {
	tp := make(Tuple, rng.Intn(7))
	for i := range tp {
		switch rng.Intn(7) {
		case 0:
			tp[i] = edgeValues[rng.Intn(len(edgeValues))]
		case 1:
			tp[i] = Int(int64(rng.Uint64()))
		case 2:
			tp[i] = Float(math.Float64frombits(rng.Uint64()))
		case 3:
			b := make([]byte, rng.Intn(40))
			rng.Read(b)
			tp[i] = Str(string(b))
		case 4:
			tp[i] = Bool(rng.Intn(2) == 0)
		case 5:
			tp[i] = Date(rng.Int63n(30000))
		default:
			tp[i] = Null
		}
	}
	return reflect.ValueOf(tupleGen(tp))
}

// encodeRow is the row-major record codec the block replaced, kept as
// the test oracle: a value count, then per value a kind byte and its
// payload (a varint, 8 float bytes, or a length-prefixed string).
func encodeRow(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
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

// refSlab is the oracle's decoder: Measure validates every record and
// adds up its size, then Decode carves the same tuples, in the same
// order, out of one exactly sized []Value and one []byte.
type refSlab struct {
	nvals, nstr int // measured, not yet carved
	vals        []Value
	str         []byte
}

var errBadRecord = errors.New("oracle: bad record")

// Measure validates the record at the front of buf, adds its size to
// the slab's, and returns its encoded length.
func (s *refSlab) Measure(buf []byte) (int, error) {
	n, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return 0, errBadRecord
	}
	for i := uint64(0); i < n; i++ {
		if pos >= len(buf) {
			return 0, errBadRecord
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
		case KindInt, KindDate, KindBool:
			_, k := binary.Varint(buf[pos:])
			if k <= 0 {
				return 0, errBadRecord
			}
			pos += k
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, errBadRecord
			}
			pos += 8
		case KindString:
			l, k := binary.Uvarint(buf[pos:])
			if k <= 0 || l > uint64(len(buf)-pos-k) {
				return 0, errBadRecord
			}
			pos += k + int(l)
			s.nstr += int(l)
		default:
			return 0, fmt.Errorf("oracle: unknown kind %d", kind)
		}
	}
	s.nvals += int(n) // n <= len(buf): every value took at least a byte
	return pos, nil
}

// Decode carves the tuple encoded at the front of buf, which a Measure
// call accepted before the first Decode, out of the slab and returns it
// with its encoded length.
func (s *refSlab) Decode(buf []byte) (Tuple, int) {
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

// oracleRows decodes the records at the front of buf through the
// oracle, stopping at the first one it rejects.
func oracleRows(buf []byte) []Tuple {
	var s refSlab
	var lens []int
	for pos := 0; pos < len(buf); {
		n, err := s.Measure(buf[pos:])
		if err != nil {
			break
		}
		lens = append(lens, n)
		pos += n
	}
	rows := make([]Tuple, len(lens))
	pos := 0
	for i := range rows {
		rows[i], _ = s.Decode(buf[pos:])
		pos += lens[i]
	}
	return rows
}

// encodeBlocks encodes rows as back-to-back blocks, as a wire batch is.
func encodeBlocks(rows []Tuple) []byte {
	var enc []byte
	for {
		var n int
		enc, n = AppendBlock(enc, rows)
		if rows = rows[n:]; len(rows) == 0 {
			return enc
		}
	}
}

// decodeBlocks decodes back-to-back blocks keeping the columns cols.
func decodeBlocks(t testing.TB, enc []byte, cols []int) []Tuple {
	t.Helper()
	var rows []Tuple
	for pos := 0; pos < len(enc); {
		var (
			used int
			err  error
		)
		if rows, used, err = DecodeBlock(rows, nil, enc[pos:], cols, 0, -1); err != nil {
			t.Fatalf("decode block at byte %d: %v", pos, err)
		}
		pos += used
	}
	return rows
}

// TestSlabRoundTrip: groups of tuples of any arities, encoded as blocks
// and decoded, equal what was encoded, bit for bit, and what the row
// oracle makes of each.
func TestSlabRoundTrip(t *testing.T) {
	f := func(group []tupleGen) bool {
		rows := make([]Tuple, len(group))
		var rec []byte
		for i, tp := range group {
			rows[i] = Tuple(tp)
			rec = encodeRow(rec, rows[i])
		}
		got := decodeBlocks(t, encodeBlocks(rows), nil)
		ref := oracleRows(rec)
		if len(got) != len(rows) || len(ref) != len(rows) {
			return false
		}
		for i, tp := range rows {
			if len(got[i]) != len(tp) || got[i] == nil {
				return false
			}
			for j := range tp {
				if !identical(got[i][j], tp[j]) || !identical(ref[i][j], tp[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Every edge value in one tuple, deterministically.
	if !f([]tupleGen{tupleGen(edgeValues), {}, tupleGen(edgeValues[:3])}) {
		t.Error("edge values failed the round trip")
	}
}

// TestDecodedValuesBehaveAlike: Compare, Equal and Hash give the same
// answers on decoded values as on the values that were encoded.
func TestDecodedValuesBehaveAlike(t *testing.T) {
	dec := decodeBlocks(t, encodeBlocks([]Tuple{edgeValues}), nil)[0]
	for i, a := range edgeValues {
		if a.Hash() != dec[i].Hash() {
			t.Errorf("%v: Hash changed across the codec", a)
		}
		for j, b := range edgeValues {
			if Compare(a, b) != Compare(dec[i], dec[j]) || Equal(a, b) != Equal(dec[i], dec[j]) {
				t.Errorf("Compare/Equal(%v, %v) changed across the codec", a, b)
			}
		}
	}
}

// TestDecodedStringsOutliveSource: decoded tuples own their strings; a
// page or frame buffer may be overwritten as soon as Decode returns.
func TestDecodedStringsOutliveSource(t *testing.T) {
	src := Tuple{Str("alpha"), Int(7), Str(""), Str("omega")}
	mixed := Tuple{Int(1), Str("beta"), Null, Null}
	enc := encodeBlocks([]Tuple{src, mixed, src})
	got := decodeBlocks(t, enc, nil)
	one, _, err := DecodeBlock(nil, nil, enc, []int{1, 3}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	got = append(got, one...)
	for i, want := range []Tuple{src, mixed, src, {src[1], src[3]}} {
		tp := got[i]
		for j := range want {
			if !identical(tp[j], want[j]) {
				t.Errorf("row %d column %d reads %q after the source was overwritten", i, j, tp[j].AsString())
			}
		}
	}
}

// TestSlabAllocs: the point of DecodeBlock's slabs — a block costs two
// allocations, its values and its strings, however many rows and
// strings it holds.
func TestSlabAllocs(t *testing.T) {
	src := make([]Tuple, 100)
	for i := range src {
		src[i] = Tuple{Int(int64(i)), Str("name"), Float(1.5), Str("dept")}
	}
	enc, _ := AppendBlock(nil, src)
	rows := make([]Tuple, 0, 100)
	allocs := testing.AllocsPerRun(20, func() {
		rows, _, _ = DecodeBlock(rows[:0], nil, enc, nil, 0, -1)
	})
	if allocs > 2 {
		t.Errorf("decode of 100 rows took %.0f allocs, want <= 2", allocs)
	}
}
