package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// FuzzReplay holds file replay to acked history under damage. An input is
// up to four edits of three bytes each — a little-endian offset into the
// torn-prefix tables' 14-record log, taken modulo its length, and a mask
// XORed into the byte there. Recovery of the edited log either fails with
// ErrCorrupt, or keeps the first k records for some k — exactly their state
// and clock, the rest truncated as a torn tail — where the k records include
// every frame that ends before the first edited byte. It never returns a
// record that was not written. testdata/fuzz/FuzzReplay seeds it with no
// edit, the length-byte flips of TestReplaySingleByteFlip in the first,
// a middle and the last frame, the torn-tail table's damage to the last
// frame, and two and four edits across frames.
func FuzzReplay(f *testing.F) {
	recs, acked := genLog(14)
	f.Fuzz(func(t *testing.T, edits []byte) {
		full := EncodeRecords(recs)
		bounds := frameBounds(t, full)
		first := len(full)
		rec, err := openEdited(t, t.TempDir(), full, func(b []byte) {
			for i := 0; i+3 <= len(edits) && i < 12; i += 3 {
				off := int(binary.LittleEndian.Uint16(edits[i:])) % len(b)
				if mask := edits[i+2]; mask != 0 {
					b[off] ^= mask
					first = min(first, off)
				}
			}
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%x: %v, want ErrCorrupt", edits, err)
			}
			return
		}
		// Frames that end at or before the first edited byte are intact.
		intact := sort.SearchInts(bounds[1:], first+1)
		if rec.LogRecords < intact || rec.LogRecords > len(recs) {
			t.Fatalf("%x: kept %d records, want %d to %d", edits, rec.LogRecords, intact, len(recs))
		}
		checkKept(t, rec, recs, acked, bounds, rec.LogRecords, fmt.Sprintf("%x", edits))
	})
}
