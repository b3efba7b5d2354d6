// Package value implements the typed scalar values stored in relations and
// referenced by queries and preference conditions.
//
// Values are small immutable variants over int64, float64, string and bool,
// with a Null kind for absent data. They provide total ordering within a
// kind (and across numeric kinds), hashing for use in hash joins and
// grouping, and SQL-literal rendering for query construction.
package value

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable typed scalar. The zero Value is NULL.
//
// It is 32 bytes: the kind, a BOOL's payload in the byte beside it, one word
// holding an INT or a FLOAT's IEEE-754 bits, and a STRING's header. Rows are
// slices of values, so every stored row, copy and scan moves this size.
type Value struct {
	kind Kind
	b    bool
	n    uint64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if the value is not an INT.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return int64(v.n)
}

// AsFloat returns the value as a float64. INT values are widened.
// It panics for non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n)
	case KindInt:
		return float64(int64(v.n))
	default:
		panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
	}
}

// AsStr returns the string payload. It panics if the value is not a string.
func (v Value) AsStr() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsStr on %s", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics if the value is not a bool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.b
}

// Peek reads v where it lies: its kind, its payload word as an int64 and its
// string. The word is an INT's value, but a FLOAT's bits for a FLOAT, so a
// caller reads it only for an INT; the string is empty for every kind but
// STRING. A per-tuple loop branches on the kind and compares the payload
// without copying the value.
func (v *Value) Peek() (Kind, int64, string) { return v.kind, int64(v.n), v.s }

// numericKinds reports whether both values are numeric (INT or FLOAT).
func numericKinds(a, b Value) bool {
	return (a.kind == KindInt || a.kind == KindFloat) &&
		(b.kind == KindInt || b.kind == KindFloat)
}

// Comparable reports whether a and b can be ordered against each other:
// same kind, or both numeric. NULL compares only with NULL.
func Comparable(a, b Value) bool {
	return a.kind == b.kind || numericKinds(a, b)
}

// Compare orders v against o: -1 if v < o, 0 if equal, +1 if v > o.
// NULL sorts before everything. Numeric kinds compare by numeric value.
// Comparing incomparable kinds orders by kind tag so that Compare remains a
// total order usable for sorting heterogeneous slices.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	// Same-kind INT and STRING pairs — every join key and most selections —
	// compare directly: exact above 2^53, and off the float path.
	if v.kind == o.kind {
		switch v.kind {
		case KindInt:
			switch a, b := int64(v.n), int64(o.n); {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		case KindString:
			return strings.Compare(v.s, o.s)
		}
	}
	if numericKinds(v, o) {
		a, b := v.AsFloat(), o.AsFloat()
		// NaN breaks <'s trichotomy; order it deterministically before every
		// non-NaN number so Compare stays a total order.
		an, bn := math.IsNaN(a), math.IsNaN(b)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		switch {
		case v.kind < o.kind:
			return -1
		default:
			return 1
		}
	}
	// Only BOOL is left: NULL, numeric and STRING pairs returned above.
	switch {
	case v.b == o.b:
		return 0
	case !v.b:
		return -1
	default:
		return 1
	}
}

// Equal reports whether v and o are equal under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Less reports whether v orders strictly before o.
func (v Value) Less(o Value) bool { return v.Compare(o) < 0 }

// Hash returns a 64-bit hash suitable for hash joins and grouping.
// Values that are Equal hash identically (INT and FLOAT representing the
// same number share a hash).
//
// It is FNV-1a over a kind tag followed by the payload (numerics as the
// little-endian bits of the float64, strings as their bytes), written out
// inline: catalog frequency tables and spill partitioning are keyed by the
// exact result, so the bytes hashed must not change.
func (v Value) Hash() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * prime
	case KindInt, KindFloat:
		h = (h ^ 1) * prime
		f := v.AsFloat()
		bits := math.Float64bits(f)
		if f == 0 { // normalize -0.0 and +0.0
			bits = 0
		}
		if math.IsNaN(f) { // normalize NaN payloads: all NaNs are Equal
			bits = math.Float64bits(math.NaN())
		}
		for j := 0; j < 8; j++ {
			h = (h ^ (bits >> (8 * j) & 0xff)) * prime
		}
	case KindString:
		h = (h ^ 2) * prime
		for j := 0; j < len(v.s); j++ {
			h = (h ^ uint64(v.s[j])) * prime
		}
	case KindBool:
		h = (h ^ 3) * prime
		if v.b {
			h = (h ^ 1) * prime
		} else {
			h = (h ^ 0) * prime
		}
	}
	return h
}

// Width returns the value's storage footprint in bytes under the storage
// layer's block model: 8 bytes for numerics and booleans (slot-aligned),
// string length plus a 4-byte length header for strings, 1 byte for NULL.
func (v Value) Width() int {
	switch v.kind {
	case KindString:
		return len(v.s) + 4
	case KindNull:
		return 1
	default:
		return 8
	}
}

// String renders the value for display (unquoted strings).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		f := math.Float64frombits(v.n)
		if f == 0 {
			// Either zero renders "0": "-0" would read back as the INT 0,
			// which renders without the sign, so texts would not round-trip.
			return "0"
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQL() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// AppendSQL appends SQL() to b.
func (v Value) AppendSQL(b []byte) []byte {
	if v.kind != KindString {
		return v.appendText(b)
	}
	b = append(b, '\'')
	for s := v.s; ; {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			b = append(b, s...)
			break
		}
		b = append(append(b, s[:i+1]...), '\'')
		s = s[i+1:]
	}
	return append(b, '\'')
}

// CompareSQL orders a and b as strings.Compare(a.SQL(), b.SQL()) does, and
// allocates nothing. Two strings are walked once: past their common prefix
// the first differing byte decides; where one string ends, its closing quote
// meets the other's next byte, and if that byte is a quote too (rendered
// doubled) the ended string is a prefix of the other's text and sorts first.
// A string against any other kind is its opening quote against the first
// byte of the other's text; numbers, BOOL and NULL are rendered on the stack.
func CompareSQL(a, b Value) int {
	switch {
	case a.kind == KindString && b.kind == KindString:
		i := 0
		for i < len(a.s) && i < len(b.s) && a.s[i] == b.s[i] {
			i++
		}
		switch {
		case i < len(a.s) && i < len(b.s):
			return cmp.Compare(a.s[i], b.s[i])
		case i < len(b.s):
			return afterQuote(b.s[i])
		case i < len(a.s):
			return -afterQuote(a.s[i])
		}
		return 0
	case a.kind == KindString:
		return afterQuote(b.first())
	case b.kind == KindString:
		return -afterQuote(a.first())
	}
	var x, y [32]byte
	return bytes.Compare(a.appendText(x[:0]), b.appendText(y[:0]))
}

// afterQuote compares a quote with c, the byte that meets it in another
// text, counting a tie as the quote's text ending first.
func afterQuote(c byte) int {
	if c < '\'' {
		return 1
	}
	return -1
}

// first returns the first byte of a non-STRING value's text.
func (v Value) first() byte {
	var buf [32]byte
	return v.appendText(buf[:0])[0]
}

// appendText appends what String renders for a value of any kind but STRING.
func (v Value) appendText(b []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(b, "NULL"...)
	case KindInt:
		return strconv.AppendInt(b, int64(v.n), 10)
	case KindFloat:
		if f := math.Float64frombits(v.n); f != 0 {
			return strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		return append(b, '0')
	case KindBool:
		return strconv.AppendBool(b, v.b)
	default:
		return append(b, '?')
	}
}

// ParseLiteral parses a SQL literal into a Value: quoted strings, integers,
// floats, booleans (TRUE/FALSE), and NULL.
func ParseLiteral(s string) (Value, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	if len(t) >= 2 && t[0] == '\'' && t[len(t)-1] == '\'' {
		return Str(strings.ReplaceAll(t[1:len(t)-1], "''", "'")), nil
	}
	// A literal spelled as a number is none of the words, and one not
	// spelled as an INT is not read as one (strconv's error allocates), so
	// a number allocates nothing.
	if c := t[0]; !(c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.') {
		switch strings.ToUpper(t) {
		case "NULL":
			return Null(), nil
		case "TRUE":
			return Bool(true), nil
		case "FALSE":
			return Bool(false), nil
		}
	}
	if intSpelled(t) {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return Int(i), nil
		}
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Value{}, fmt.Errorf("value: non-finite literal %q", s)
		}
		return Float(f), nil
	}
	return Value{}, fmt.Errorf("value: cannot parse literal %q", s)
}

// intSpelled reports whether t is what strconv.ParseInt(t, 10, 64) reads:
// an optional sign and decimal digits.
func intSpelled(t string) bool {
	if t[0] == '-' || t[0] == '+' {
		t = t[1:]
	}
	for i := 0; i < len(t); i++ {
		if t[i] < '0' || t[i] > '9' {
			return false
		}
	}
	return t != ""
}

// CoerceTo converts v to the requested kind when a lossless or standard SQL
// coercion exists (INT↔FLOAT, anything from NULL stays NULL).
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return Float(v.AsFloat()), nil
	case v.kind == KindFloat && k == KindInt:
		f := v.AsFloat()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			return Int(int64(f)), nil
		}
		return Value{}, fmt.Errorf("value: cannot coerce non-integral %v to INT", f)
	default:
		return Value{}, fmt.Errorf("value: cannot coerce %s to %s", v.kind, k)
	}
}
