package query

import (
	"math"
	"testing"

	"cqp/internal/value"
)

// opTestValues has every kind, and inside each the values a shortcut could
// get wrong: integers a float64 cannot tell apart, the float specials, the
// empty string, and INT/FLOAT spellings of one number.
var opTestValues = []value.Value{
	value.Null(),
	value.Int(0), value.Int(1), value.Int(-1), value.Int(1 << 53), value.Int(1<<53 + 1),
	value.Int(-(1 << 53)), value.Int(-(1<<53 + 1)), value.Int(math.MaxInt64), value.Int(math.MinInt64),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(-1), value.Float(1.5),
	value.Float(1 << 53), value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
	value.Str(""), value.Str("a"), value.Str("b"), value.Str("a\x00"), value.Str("genre00"),
	value.Bool(false), value.Bool(true),
}

// TestOpTestMatchesEval holds Test to its definition: every operator (and one
// that does not exist) over every pair of opTestValues.
func TestOpTestMatchesEval(t *testing.T) {
	for o := OpEq; o <= OpGe+1; o++ {
		for i := range opTestValues {
			for j := range opTestValues {
				a, b := opTestValues[i], opTestValues[j]
				if got, want := o.Test(&a, &b), o.Eval(a, b); got != want {
					t.Errorf("(%s %s %s): Test %v, Eval %v", a.SQL(), o, b.SQL(), got, want)
				}
			}
		}
	}
}

// fuzzValue builds a value of kind k%5 from the fuzzed primitives.
func fuzzValue(k uint8, i int64, f float64, s string) value.Value {
	switch value.Kind(k % 5) {
	case value.KindInt:
		return value.Int(i)
	case value.KindFloat:
		return value.Float(f)
	case value.KindString:
		return value.Str(s)
	case value.KindBool:
		return value.Bool(i&1 == 1)
	}
	return value.Null()
}

// FuzzOpTest searches for a pair of values and an operator on which the
// in-place test and Eval disagree; testdata/fuzz/FuzzOpTest seeds it.
func FuzzOpTest(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, ak uint8, ai int64, af float64, as string, bk uint8, bi int64, bf float64, bs string) {
		o := Op(op % 7)
		a, b := fuzzValue(ak, ai, af, as), fuzzValue(bk, bi, bf, bs)
		if got, want := o.Test(&a, &b), o.Eval(a, b); got != want {
			t.Fatalf("(%s %s %s): Test %v, Eval %v", a.SQL(), o, b.SQL(), got, want)
		}
	})
}
