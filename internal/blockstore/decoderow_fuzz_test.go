package blockstore

import (
	"testing"
)

// FuzzDecodeRow holds the row decoder — it reads every block-store page
// payload and every spill frame of internal/iter — to two properties: no
// input panics it, and a row it accepts survives its own encoding: decoding
// AppendRow's bytes for it gives back the same values, bit for bit, and
// consumes them exactly. The encoding need not be the input's own (any
// non-zero BOOLEAN byte decodes as true), so the property is
// decode(encode(decode(x))) = decode(x). testdata/fuzz/FuzzDecodeRow seeds
// it with rows of every value kind, an empty row, a non-canonical BOOLEAN,
// trailing bytes, a truncated VARCHAR and an arity larger than the input.
func FuzzDecodeRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		row, _, err := DecodeRow(b)
		if err != nil {
			return
		}
		enc := AppendRow(nil, row)
		again, rest, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("%q decodes to %v, whose encoding %q fails to decode: %v", b, row, enc, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%q decodes to %v, whose encoding leaves %d bytes", b, row, len(rest))
		}
		if len(again) != len(row) {
			t.Fatalf("%q decodes to %d values, its re-encoding to %d", b, len(row), len(again))
		}
		for i := range row {
			if again[i] != row[i] {
				t.Fatalf("%q: value %d decodes to %v, its re-encoding to %v", b, i, row[i], again[i])
			}
		}
	})
}
