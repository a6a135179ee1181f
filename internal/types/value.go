// Package types defines the value model shared by every layer of the
// system: scalar values, attribute types, schemas, tuples, and the
// closed-open time-period conventions used by the temporal operators.
//
// The paper (Slivinskas, Jensen, Snodgrass, SIGMOD 2001) works at day
// granularity with closed-open periods [T1, T2); Date values here are
// integer day numbers relative to 1970-01-01.
package types

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the attribute types supported by the engine and the
// middleware.
type Kind uint8

// Supported attribute kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate // day number since 1970-01-01
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is NULL.
//
// It is three words (24 bytes): every row the system decodes, holds,
// copies or sorts is a []Value, so its size is the constant under all
// of them. One payload word serves every kind, and a string is its data
// pointer plus its length rather than a two-word header. Copying a
// Value copies that pointer, not the bytes: they live as long as the
// row the value came in (rel.Iterator's row-lifetime rule), and a value
// kept longer is copied into an Arena (Arena.Value). Equal strings may
// live at different addresses, so == would be wrong; the zero-size
// first field makes it a compile error (use Equal or Compare).
type Value struct {
	_    [0]func()
	p    *byte // string: first byte (nil when empty); other kinds: nil
	n    int64 // int, bool (0/1), date; float: IEEE-754 bits; string: length
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(v))} }

// Str returns a string value.
func Str(v string) Value {
	if v == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: unsafe.StringData(v), n: int64(len(v))}
}

// str returns the payload of a string Value.
func (v Value) str() string { return unsafe.String(v.p, int(v.n)) }

// float returns the payload of a float Value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Date returns a date value holding a day number since 1970-01-01.
func Date(day int64) Value { return Value{kind: KindDate, n: day} }

// DateYMD returns a date value for the given calendar day (UTC).
func DateYMD(year int, month time.Month, day int) Value {
	return Date(DayOf(year, month, day))
}

// DayOf converts a calendar date to a day number since 1970-01-01.
func DayOf(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the value as int64. Dates and booleans convert; floats
// truncate. NULL converts to 0.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return v.n
	case KindFloat:
		return int64(v.float())
	case KindString:
		n, _ := strconv.ParseInt(v.str(), 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return float64(v.n)
	case KindFloat:
		return v.float()
	case KindString:
		f, _ := strconv.ParseFloat(v.str(), 64)
		return f
	default:
		return 0
	}
}

// AsString returns the value as a string. For non-strings this is the
// display form.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.str()
	}
	return v.String()
}

// AsBool returns the value as a boolean; non-zero numerics are true.
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool, KindInt, KindDate:
		return v.n != 0
	case KindFloat:
		return v.float() != 0
	case KindString:
		return v.n != 0
	default:
		return false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return time.Unix(v.n*86400, 0).UTC().Format("2006-01-02")
	default:
		return "?"
	}
}

// SQL renders the value as an SQL literal.
func (v Value) SQL() string {
	switch v.kind {
	case KindString:
		return "'" + escapeSQL(v.str()) + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	default:
		return v.String()
	}
}

func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, s[i])
	}
	return string(out)
}

// numericKind reports whether the kind is ordered along the numeric axis.
func numericKind(k Kind) bool {
	switch k {
	case KindInt, KindFloat, KindBool, KindDate:
		return true
	}
	return false
}

// Compare is the one total order of values, which every sort, join,
// grouping, index and equality test of the system decides through:
// NULL first; then every numeric (integers, dates, booleans and
// floats) on one axis, compared exactly, with -0 equal to +0, and NaN
// equal to NaN and after every other number; then strings, in byte
// order. A number never equals a string.
func Compare(a, b Value) int {
	// Same-kind integers, floats and strings are nearly every comparison
	// a sort, a join or a scan's conjunct makes; they skip the rules
	// below.
	if a.kind == b.kind {
		switch a.kind {
		case KindInt, KindDate, KindBool:
			return cmp.Compare(a.n, b.n)
		case KindFloat:
			return compareFloats(a.float(), b.float())
		case KindString:
			return strings.Compare(a.str(), b.str())
		}
	}
	if !numericKind(a.kind) || !numericKind(b.kind) {
		return cmp.Compare(kindRank(a.kind), kindRank(b.kind))
	}
	switch {
	case a.kind == KindFloat:
		return -compareIntFloat(b.n, a.float())
	case b.kind == KindFloat:
		return compareIntFloat(a.n, b.float())
	}
	return cmp.Compare(a.n, b.n)
}

// kindRank is a kind's place in Compare's order: NULL, numerics,
// strings.
func kindRank(k Kind) int {
	switch {
	case k == KindNull:
		return 0
	case k == KindString:
		return 2
	}
	return 1
}

// compareFloats orders two floats: -0 equals 0, and NaN equals NaN and
// follows every other float.
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	case !math.IsNaN(a):
		return -1
	case !math.IsNaN(b):
		return 1
	}
	return 0
}

// compareIntFloat orders an integer against a float exactly: through
// float64 while the integer converts exactly (|i| <= 2^53), else
// against the float's integer part, which is then the whole float.
func compareIntFloat(i int64, f float64) int {
	switch {
	case -1<<53 <= i && i <= 1<<53 || math.IsNaN(f):
		return compareFloats(float64(i), f)
	case f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	return cmp.Compare(i, int64(f))
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Less reports whether a orders before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

var hashSeed = maphash.MakeSeed()

// nanBits is the one word every NaN hashes and sorts as.
const nanBits = 0x7ff8000000000000

// Hash returns a hash of the value consistent with Equal (for hash
// joins and duplicate elimination). Every numeric hashes through its
// float64, so Int(2), Float(2.0) and Date(2) hash alike, -0 as +0 and
// every NaN as one.
func (v Value) Hash() uint64 {
	switch {
	case v.kind == KindNull:
		return 0
	case numericKind(v.kind):
		f := v.AsFloat()
		x := math.Float64bits(f)
		switch {
		case f == 0:
			x = 0 // -0 equals +0
		case math.IsNaN(f):
			x = nanBits
		}
		// murmur3's 64-bit finalizer
		x = (x ^ x>>33) * 0xff51afd7ed558ccd
		x = (x ^ x>>33) * 0xc4ceb9fe1a85ec53
		return x ^ x>>33
	default:
		return maphash.String(hashSeed, v.str())
	}
}

// Add returns a+b with numeric promotion. String addition concatenates.
// NULL propagates.
func Add(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindString || b.kind == KindString {
		return Str(a.AsString() + b.AsString())
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return Float(a.AsFloat() + b.AsFloat())
	}
	if a.kind == KindDate || b.kind == KindDate {
		return Date(a.AsInt() + b.AsInt())
	}
	return Int(a.AsInt() + b.AsInt())
}

// Sub returns a-b with numeric promotion. NULL propagates.
func Sub(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return Float(a.AsFloat() - b.AsFloat())
	}
	if a.kind == KindDate && b.kind == KindDate {
		return Int(a.n - b.n) // date difference is a day count
	}
	if a.kind == KindDate {
		return Date(a.n - b.AsInt())
	}
	return Int(a.AsInt() - b.AsInt())
}

// Mul returns a*b with numeric promotion. NULL propagates.
func Mul(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		return Float(a.AsFloat() * b.AsFloat())
	}
	return Int(a.AsInt() * b.AsInt())
}

// Div returns a/b. Integer division by zero yields NULL.
func Div(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if a.kind == KindFloat || b.kind == KindFloat {
		bf := b.AsFloat()
		if bf == 0 {
			return Null
		}
		return Float(a.AsFloat() / bf)
	}
	bi := b.AsInt()
	if bi == 0 {
		return Null
	}
	return Int(a.AsInt() / bi)
}

// Greatest returns the larger of a and b (SQL GREATEST, used by the
// temporal-join SQL translation). NULL propagates.
func Greatest(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if Compare(a, b) >= 0 {
		return a
	}
	return b
}

// Least returns the smaller of a and b (SQL LEAST). NULL propagates.
func Least(a, b Value) Value {
	if a.IsNull() || b.IsNull() {
		return Null
	}
	if Compare(a, b) <= 0 {
		return a
	}
	return b
}

// ByteSize returns the approximate in-memory/wire size of the value in
// bytes; used for size(r) statistics.
func (v Value) ByteSize() int {
	switch v.kind {
	case KindString:
		return 4 + int(v.n)
	case KindNull:
		return 1
	default:
		return 8
	}
}
