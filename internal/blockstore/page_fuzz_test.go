package blockstore

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzPage holds one page frame to what recovery relies on. The input, cut
// or zero-padded to one 512-byte page, goes to verifyPage and, once
// accepted, to decodePage, as readPage sends it. No input panics either,
// and:
//
//   - verifyPage accepts the page exactly when its header's used count fits
//     the page and the CRC over the header and the payload matches, and then
//     returns that payload and the header's row count; it refuses anything
//     else with ErrCorrupt;
//   - an accepted page's rows all decode, or decodePage returns ErrCorrupt.
//
// reseal rewrites the CRC over what the page holds before it is checked, so
// the mutator's edits of a payload reach the decoder instead of stopping at
// the CRC. testdata/fuzz/FuzzPage seeds it with pages a 512-byte-block
// ITEM table wrote — a sealed page and the partial tail page — and edits of
// the sealed page: a flipped payload byte, a used count beyond the page, a
// row count one too high (resealed), and an all-zero page.
func FuzzPage(f *testing.F) {
	const blockSize = 512
	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		page := make([]byte, blockSize)
		copy(page, b)
		nrows := int(binary.LittleEndian.Uint16(page[4:6]))
		used := int(binary.LittleEndian.Uint16(page[6:8]))
		fits := used <= blockSize-pageHeaderSize
		if reseal && fits {
			binary.LittleEndian.PutUint32(page[0:4], crc32.Checksum(page[4:pageHeaderSize+used], castagnoli))
		}
		want := fits && binary.LittleEndian.Uint32(page[0:4]) == crc32.Checksum(page[4:pageHeaderSize+used], castagnoli)

		tbl := &Table{store: &Store{blockSize: blockSize}}
		payload, n, err := tbl.verifyPage(page)
		if (err == nil) != want {
			t.Fatalf("used %d, fits %v: verifyPage error %v, want accepted = %v", used, fits, err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		if n != nrows || len(payload) != used {
			t.Fatalf("accepted page: %d rows and %d payload bytes, header says %d and %d", n, len(payload), nrows, used)
		}
		rows, err := decodePage(payload, n)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(rows) != nrows {
			t.Fatalf("decoded %d rows of %d", len(rows), nrows)
		}
	})
}
