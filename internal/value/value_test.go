package value

import (
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INT",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindBool:   "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float: %v", v)
	}
	if v := Str("abc"); v.Kind() != KindString || v.AsStr() != "abc" {
		t.Errorf("Str: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool: %v", v)
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull broken")
	}
	// Int widens through AsFloat.
	if Int(3).AsFloat() != 3.0 {
		t.Error("AsFloat(Int) should widen")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("AsInt", func() { Str("x").AsInt() })
	mustPanic("AsFloat", func() { Str("x").AsFloat() })
	mustPanic("AsStr", func() { Int(1).AsStr() })
	mustPanic("AsBool", func() { Int(1).AsBool() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.5), -1},
		{Float(2.0), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		// INT pairs compare as int64: ids above 2^53 stay distinct (through
		// float64 both sides round to the same number).
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(-(1 << 53)), Int(-(1 << 53) - 1), 1},
		{Int(-(1 << 53) - 1), Int(-(1 << 53) - 1), 0},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		// Mixed INT/FLOAT keeps the float comparison, rounding included.
		{Int(1<<53 + 1), Float(1 << 53), 0},
		{Float(1 << 53), Int(1 << 53), 0},
		{Int(-(1 << 53) - 1), Float(-(1 << 53)), 0},
		{Float(math.Copysign(0, -1)), Float(0), 0},
		{Float(math.Copysign(0, -1)), Int(0), 0},
		{Float(math.NaN()), Float(math.NaN()), 0},
		{Float(math.NaN()), Int(math.MinInt64), -1},
		{Int(0), Float(math.NaN()), 1},
		{Float(math.NaN()), Null(), 1},
		{Str("10"), Str("9"), -1},
		{Str(""), Str("a"), -1},
		{Bool(true), Bool(false), 1},
		{Bool(true), Str("x"), 1},
		{Float(1), Str("1"), -1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
		if c.want == 0 && c.a.Hash() != c.b.Hash() {
			t.Errorf("%v and %v are Equal but hash differently", c.a, c.b)
		}
	}
	// Cross-kind non-numeric comparison is a total order by kind tag.
	if Int(1).Compare(Str("a")) >= 0 || Str("a").Compare(Int(1)) <= 0 {
		t.Error("cross-kind ordering not antisymmetric")
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		vals := []Value{Int(a), Int(b), Str(s1), Str(s2), Float(float64(a) / 3), Null(), Bool(a%2 == 0)}
		for _, x := range vals {
			for _, y := range vals {
				if x.Compare(y) != -y.Compare(x) {
					return false
				}
				if x.Compare(y) == 0 != x.Equal(y) {
					return false
				}
				if (x.Compare(y) < 0) != x.Less(y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualConsistency(t *testing.T) {
	f := func(i int64, s string) bool {
		a, b := Int(i), Float(float64(i))
		if float64(i) == math.Trunc(float64(i)) && a.Equal(b) && a.Hash() != b.Hash() {
			return false
		}
		return Str(s).Hash() == Str(s).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Int(0).Hash() != Float(math.Copysign(0, -1)).Hash() {
		t.Error("-0.0 and 0 must hash equally")
	}
	if Int(1).Hash() == Str("1").Hash() {
		t.Error("kind must participate in hash")
	}
}

// referenceHash is Hash as it was written before it was inlined: FNV-1a
// through hash/fnv over a kind tag and the payload bytes.
func referenceHash(v Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	switch v.kind {
	case KindNull:
		h.Write(buf[:1])
	case KindInt, KindFloat:
		buf[0] = 1
		f := v.AsFloat()
		bits := math.Float64bits(f)
		if f == 0 {
			bits = 0
		}
		if math.IsNaN(f) {
			bits = math.Float64bits(math.NaN())
		}
		for j := 0; j < 8; j++ {
			buf[1+j] = byte(bits >> (8 * j))
		}
		h.Write(buf[:9])
	case KindString:
		buf[0] = 2
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	case KindBool:
		buf[0] = 3
		if v.b {
			buf[1] = 1
		}
		h.Write(buf[:2])
	}
	return h.Sum64()
}

// Catalog frequency tables and spill partitioning are keyed by Hash, so the
// inlined function must return exactly what the hash/fnv one did.
func TestHashMatchesReference(t *testing.T) {
	vals := []Value{
		Null(), Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(42), Int(1 << 53), Int(1<<53 + 1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-2.25), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.SmallestNonzeroFloat64),
		Str(""), Str("a"), Str("genre07"), Str("Movie 000123"), Str("it's"), Str("héllo \x00 wörld"),
	}
	for _, v := range vals {
		if got, want := v.Hash(), referenceHash(v); got != want {
			t.Errorf("Hash(%v %s) = %#x, reference %#x", v.Kind(), v, got, want)
		}
	}
	f := func(i int64, x float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(x), Str(s), Bool(b)} {
			if v.Hash() != referenceHash(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueSize pins the in-memory layout: rows are slices of values, so
// every stored row, copy and scan moves this many bytes per column (48
// before the payloads shared one word).
func TestValueSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 32 {
		t.Errorf("value.Value is %d bytes, want 32", got)
	}
}

// TestPayloadWord: the one payload word keeps every kind's value, and
// struct equality of FLOAT values is by bits now, which only the signed
// zeros and NaN payloads can tell apart from Compare.
func TestPayloadWord(t *testing.T) {
	for _, i := range []int64{0, -1, 1, math.MaxInt64, math.MinInt64} {
		if Int(i).AsInt() != i {
			t.Errorf("Int(%d) reads back %d", i, Int(i).AsInt())
		}
	}
	for _, f := range []float64{0, 2.5, -1e300, math.Inf(1), math.SmallestNonzeroFloat64} {
		if Float(f).AsFloat() != f {
			t.Errorf("Float(%g) reads back %g", f, Float(f).AsFloat())
		}
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool payload lost")
	}
	str := Str("x")
	if k, n, s := str.Peek(); k != KindString || n != 0 || s != "x" {
		t.Errorf("Peek(Str) = %v %d %q", k, n, s)
	}
	negZero := Float(math.Copysign(0, -1))
	if negZero == Float(0) || !negZero.Equal(Float(0)) || negZero.Hash() != Float(0).Hash() {
		t.Error("-0.0 and 0.0: struct-unequal by bits, Equal and hashing alike")
	}
}

func TestWidth(t *testing.T) {
	if Int(5).Width() != 8 || Float(1).Width() != 8 || Bool(true).Width() != 8 {
		t.Error("fixed-width kinds must be 8 bytes")
	}
	if Str("abcd").Width() != 8 {
		t.Errorf("Str width = %d, want 8", Str("abcd").Width())
	}
	if Null().Width() != 1 {
		t.Error("null width")
	}
}

func TestStringAndSQL(t *testing.T) {
	cases := []struct {
		v         Value
		str, sqls string
	}{
		{Int(7), "7", "7"},
		{Float(2.5), "2.5", "2.5"},
		{Float(math.Copysign(0, -1)), "0", "0"}, // "-0" would read back as INT 0
		{Str("o'hara"), "o'hara", "'o''hara'"},
		{Str("''x'"), "''x'", "'''''x'''"},
		{Str(""), "", "''"},
		{Bool(true), "true", "true"},
		{Null(), "NULL", "NULL"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String(%v) = %q, want %q", c.v, got, c.str)
		}
		if got := c.v.SQL(); got != c.sqls {
			t.Errorf("SQL(%v) = %q, want %q", c.v, got, c.sqls)
		}
		if got := string(c.v.AppendSQL([]byte("x"))); got != "x"+c.sqls {
			t.Errorf("AppendSQL(%v) appends %q, want %q", c.v, got[1:], c.sqls)
		}
	}
}

func TestParseLiteral(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"42", Int(42)},
		{"-3", Int(-3)},
		{"2.5", Float(2.5)},
		{"'musical'", Str("musical")},
		{"'o''hara'", Str("o'hara")},
		{"TRUE", Bool(true)},
		{"false", Bool(false)},
		{"NULL", Null()},
		{" 7 ", Int(7)},
		{"+7", Int(7)},
		{"1e5", Float(1e5)},
		{".5", Float(0.5)},
		{"-0", Int(0)},
		{"99999999999999999999", Float(1e20)}, // beyond INT
		{"falſe", Bool(false)},                // a rune that uppers to S
		{"null", Null()},
	}
	for _, c := range cases {
		got, err := ParseLiteral(c.in)
		if err != nil {
			t.Errorf("ParseLiteral(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("ParseLiteral(%q) = %v (%v), want %v", c.in, got, got.Kind(), c.want)
		}
	}
	// A number is read without an allocation, an INT or a FLOAT.
	if n := testing.AllocsPerRun(100, func() { ParseLiteral("1990"); ParseLiteral("90.5") }); n != 0 {
		t.Errorf("ParseLiteral of an INT and a FLOAT allocates %.0f times, want 0", n)
	}
	for _, bad := range []string{"", "abc", "1.2.3", "+", "-", "inf", "NaN", "1e999"} {
		if _, err := ParseLiteral(bad); err == nil {
			t.Errorf("ParseLiteral(%q) should fail", bad)
		}
	}
}

func TestParseLiteralRoundTrip(t *testing.T) {
	f := func(i int64, s string) bool {
		vi, err := ParseLiteral(Int(i).SQL())
		if err != nil || !vi.Equal(Int(i)) {
			return false
		}
		vs, err := ParseLiteral(Str(s).SQL())
		if err != nil || !vs.Equal(Str(s)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoerceTo(t *testing.T) {
	if v, err := Int(3).CoerceTo(KindFloat); err != nil || v.AsFloat() != 3.0 {
		t.Errorf("Int->Float: %v %v", v, err)
	}
	if v, err := Float(4).CoerceTo(KindInt); err != nil || v.AsInt() != 4 {
		t.Errorf("Float->Int: %v %v", v, err)
	}
	if _, err := Float(4.5).CoerceTo(KindInt); err == nil {
		t.Error("4.5 -> INT should fail")
	}
	if _, err := Str("x").CoerceTo(KindInt); err == nil {
		t.Error("string -> INT should fail")
	}
	if v, err := Null().CoerceTo(KindInt); err != nil || !v.IsNull() {
		t.Error("NULL coerces to anything as NULL")
	}
	if v, err := Int(1).CoerceTo(KindInt); err != nil || v.AsInt() != 1 {
		t.Error("identity coercion")
	}
}

func TestNaNHandling(t *testing.T) {
	nan := Float(math.NaN())
	if nan.Compare(Int(5)) != -1 || Int(5).Compare(nan) != 1 {
		t.Error("NaN must sort before finite numbers")
	}
	if nan.Compare(Float(math.NaN())) != 0 {
		t.Error("NaN must equal NaN under Compare")
	}
	if nan.Hash() != Float(math.NaN()).Hash() {
		t.Error("equal NaNs must hash equally")
	}
	for _, bad := range []string{"nan", "NaN", "inf", "+Inf", "-inf"} {
		if _, err := ParseLiteral(bad); err == nil {
			t.Errorf("ParseLiteral(%q) must reject non-finite numbers", bad)
		}
	}
}

// compareSQLValues are the pairs CompareSQL decides without rendering: a
// string that is a prefix of another followed by a byte below or above the
// closing quote, quotes that render doubled, the empty string, and every
// other kind's text, whose first byte is all a string compares with.
var compareSQLValues = []Value{
	Null(), Bool(false), Bool(true),
	Int(0), Int(-5), Int(9), Int(10), Int(math.MinInt64),
	Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-1.5), Float(1e21), Float(1e300),
	Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
	Str(""), Str("'"), Str("''"), Str("a"), Str("a'"), Str("a''"), Str("a'b"), Str("a b"),
	Str("Star"), Str("Star Wars"), Str("Star!"), Str("O'Hara"), Str("O''Hara"), Str("\x00"), Str("\xff"),
}

// TestCompareSQL holds CompareSQL to its definition on every pair of
// compareSQLValues.
func TestCompareSQL(t *testing.T) {
	for _, a := range compareSQLValues {
		for _, b := range compareSQLValues {
			if got, want := CompareSQL(a, b), strings.Compare(a.SQL(), b.SQL()); got != want {
				t.Errorf("CompareSQL(%s, %s) = %d, want %d", a.SQL(), b.SQL(), got, want)
			}
		}
	}
}

// TestCompareSQLAllocs: the tie-break of a ranked union compares keys with
// CompareSQL once per heap step, so it must not allocate — strings, INTs and
// FLOATs, the kinds of every key column, alike.
func TestCompareSQLAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b Value
	}{
		{"string", Str("Movie 000123"), Str("Movie 000124")},
		{"int", Int(1950), Int(-17)},
		{"float", Float(-1.2345678901234567e-300), Float(1e21)},
		{"mixed", Str("O'Hara"), Float(1.5)},
	} {
		if n := testing.AllocsPerRun(100, func() { CompareSQL(c.a, c.b) }); n != 0 {
			t.Errorf("%s: CompareSQL allocates %.0f times, want 0", c.name, n)
		}
	}
}

// FuzzCompareSQL searches for a pair of values that CompareSQL orders unlike
// their rendered literals; testdata/fuzz/FuzzCompareSQL seeds it. A value is
// of kind k%5 built from the fuzzed primitives (a BOOL is i's low bit).
func FuzzCompareSQL(f *testing.F) {
	f.Fuzz(func(t *testing.T, ak uint8, ai int64, af float64, as string, bk uint8, bi int64, bf float64, bs string) {
		a, b := fuzzValue(ak, ai, af, as), fuzzValue(bk, bi, bf, bs)
		if got, want := CompareSQL(a, b), strings.Compare(a.SQL(), b.SQL()); got != want {
			t.Fatalf("CompareSQL(%s, %s) = %d, want %d", a.SQL(), b.SQL(), got, want)
		}
		if got := string(a.AppendSQL(nil)); got != a.SQL() {
			t.Fatalf("AppendSQL appends %q, SQL is %q", got, a.SQL())
		}
	})
}

func fuzzValue(k uint8, i int64, f float64, s string) Value {
	switch Kind(k % 5) {
	case KindInt:
		return Int(i)
	case KindFloat:
		return Float(f)
	case KindString:
		return Str(s)
	case KindBool:
		return Bool(i&1 == 1)
	}
	return Null()
}
