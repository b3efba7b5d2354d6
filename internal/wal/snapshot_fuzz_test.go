package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzLoadSnapshot holds the snapshot decoder to the writer: every input
// either is ErrCorrupt, or loads to a state that the writer could have
// captured — no record versioned above the clock — and that encodes back to
// the same bytes. An input is a snapshot without its trailing whole-file
// CRC, which the target seals on, so that a mutation reaches the structure
// under the checksum instead of failing it. testdata/fuzz/FuzzLoadSnapshot
// seeds it with written snapshots — empty, one put, the states of the
// torn-prefix tables' log — and with the forms the writer never writes: a
// delete, a repeated or out-of-order ID, a version above the clock, a count
// larger than the body, trailing bytes, a bad magic and a short file.
func FuzzLoadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		buf := binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.Checksum(body, castagnoli))
		clock, state, err := decodeSnapshot("fuzz", buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%q: %v, want ErrCorrupt", body, err)
			}
			return
		}
		var recs []Record
		for _, r := range state {
			if r.Version > clock {
				t.Fatalf("%q loads %+v above the clock %d", body, r, clock)
			}
			recs = append(recs, r)
		}
		if again := encodeSnapshot(clock, recs); !bytes.Equal(again, buf) {
			t.Fatalf("%q loads clock %d and %+v, which encode to %q", body, clock, recs, again[:len(again)-4])
		}
	})
}
