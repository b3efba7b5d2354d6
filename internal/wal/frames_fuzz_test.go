package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrames holds the replication wire decoder — the bodies of
// /cluster/replicate and of a handoff apply, which a peer sends — to its
// inverse: every input either fails to decode, or decodes to records that
// EncodeRecords turns back into the same bytes. The frame layout is
// fixed-width, so the encoding is canonical and no two byte strings decode
// alike. testdata/fuzz/FuzzDecodeFrames seeds it with a put, a delete, an
// empty id and text, an empty body, two frames, a torn last frame and a
// flipped CRC byte.
func FuzzDecodeFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, err := DecodeFrames(body)
		if err != nil {
			return
		}
		if again := EncodeRecords(recs); !bytes.Equal(again, body) {
			t.Fatalf("%q decodes to %+v, which encodes to %q", body, recs, again)
		}
	})
}
