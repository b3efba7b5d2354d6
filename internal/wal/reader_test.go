package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFrameCodecRoundTrip: the exported frame codec is the file format —
// encode N records, decode them back, byte-identical content.
func TestFrameCodecRoundTrip(t *testing.T) {
	recs := []Record{
		put(1, "alice", "doi(x)=1"),
		del(2, "alice"),
		put(3, "bob", ""),
		put(4, "углы", "doi(ünïcode)=0.5"),
	}
	buf := EncodeRecords(recs)
	got, err := DecodeFrames(buf)
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, recs)
	}

	// One-at-a-time decoding walks the same buffer.
	off := 0
	for i := range recs {
		rec, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if rec != recs[i] {
			t.Fatalf("frame %d: got %+v want %+v", i, rec, recs[i])
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("decoded to offset %d, buffer is %d", off, len(buf))
	}
}

// TestDecodeFramesRejectsPartial: the wire decode has no torn-tail mercy —
// any truncation fails the whole buffer.
func TestDecodeFramesRejectsPartial(t *testing.T) {
	buf := EncodeRecords([]Record{put(1, "a", "x"), put(2, "b", "y")})
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeFrames(buf[:cut]); err == nil {
			// A cut landing exactly on the first frame boundary is the one
			// valid prefix.
			if _, n, ferr := readFrame(buf, 0); ferr == nil && cut == n {
				continue
			}
			t.Fatalf("DecodeFrames accepted a %d/%d-byte truncation", cut, len(buf))
		}
	}
}

// TestOpenFailsCleanly: a directory that cannot be created or read is a
// clean startup error from Open — never a panic, never a half-open log.
func TestOpenFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	// A regular file where the data directory should be: MkdirAll and
	// ReadDir both fail with a real error (ENOTDIR), the shape of any
	// transient EACCES/EIO at startup.
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := openStore(filepath.Join(file, "wal"), Options{})
	if err == nil {
		l.Close()
		t.Fatalf("Open under a file succeeded: %+v", rec)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("environment error misclassified as corruption: %v", err)
	}
}
