package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// genLog builds a deterministic mixed put/delete record sequence and
// returns, for every record count k in 0..n, the live state acked after
// the first k records — the oracle the prefix-recovery property checks
// against.
func genLog(n int) (recs []Record, acked []map[string]Record) {
	state := make(map[string]Record)
	snap := func() map[string]Record {
		m := make(map[string]Record, len(state))
		for id, r := range state {
			m[id] = r
		}
		return m
	}
	acked = append(acked, snap())
	for v := uint64(1); v <= uint64(n); v++ {
		id := fmt.Sprintf("user-%d", v%5)
		var rec Record
		if v%4 == 3 {
			rec = del(v, id)
		} else {
			// Variable-length text so frame boundaries land at uneven
			// offsets.
			text := fmt.Sprintf("doi(MOVIE.year > %d) = 0.%d — %s", 1900+int(v), v%10,
				string(make([]byte, int(v*7)%40)))
			rec = put(v, id, text)
		}
		recs = append(recs, rec)
		if rec.Op == OpDelete {
			delete(state, id)
		} else {
			state[id] = rec
		}
		acked = append(acked, snap())
	}
	return recs, acked
}

// writeLogFile writes recs as one wal-<seq>.log file in dir.
func writeLogFile(t *testing.T, dir string, seq uint64, recs []Record) string {
	t.Helper()
	path := filepath.Join(dir, logName(seq))
	if err := os.WriteFile(path, EncodeRecords(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertState compares a recovery's live profiles against an oracle map.
func assertState(t *testing.T, rec *Recovery, want map[string]Record, label string) {
	t.Helper()
	got := liveState(rec)
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d profiles, want %d\n got %+v\nwant %+v",
			label, len(got), len(want), got, want)
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.Version != w.Version || g.Text != w.Text {
			t.Fatalf("%s: profile %q: got %+v, want %+v", label, id, g, w)
		}
	}
}

// TestTornPrefixProperty replays every byte-length prefix of a generated
// log and asserts recovery always yields a version-consistent prefix of
// the acked state: the cut is treated as a torn tail, every complete
// frame before it survives, and the restored clock equals the version of
// the last surviving record. This generalizes the final-frame torn-tail
// test to arbitrary mid-stream truncation of the newest log.
func TestTornPrefixProperty(t *testing.T) {
	recs, acked := genLog(14)
	full := EncodeRecords(recs)

	// frameEnds[k] is the byte offset just past the k-th record.
	frameEnds := []int{0}
	off := 0
	for range recs {
		_, next, err := readFrame(full, off)
		if err != nil {
			t.Fatal(err)
		}
		frameEnds = append(frameEnds, next)
		off = next
	}

	// complete(cut) is how many whole frames fit in a cut-byte prefix.
	complete := func(cut int) int {
		k := 0
		for k+1 < len(frameEnds) && frameEnds[k+1] <= cut {
			k++
		}
		return k
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		path := writeLogFile(t, dir, 1, nil)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := openStore(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		k := complete(cut)
		assertState(t, rec, acked[k], fmt.Sprintf("cut=%d (k=%d)", cut, k))
		if rec.LogRecords != k {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, rec.LogRecords, k)
		}
		wantTorn := int64(cut - frameEnds[k])
		if rec.TornBytes != wantTorn {
			t.Fatalf("cut=%d: %d torn bytes, want %d", cut, rec.TornBytes, wantTorn)
		}
		var wantClock uint64
		if k > 0 {
			wantClock = recs[k-1].Version
		}
		if rec.Clock != wantClock {
			t.Fatalf("cut=%d: clock %d, want %d", cut, rec.Clock, wantClock)
		}
		// The truncated-and-recovered log must accept appends and survive a
		// clean reopen with the same state.
		if err := l.Append(put(wantClock+1, "post", "p")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}

// TestTornPrefixMidStreamIsCorrupt: the same truncations applied to a log
// that is NOT the newest — a newer log follows it — are mid-stream damage:
// acked history provably continued past the cut, so recovery must refuse
// loudly with ErrCorrupt rather than silently serve a hole. Only a cut on
// an exact frame boundary is indistinguishable from a clean rotation.
func TestTornPrefixMidStreamIsCorrupt(t *testing.T) {
	recs, acked := genLog(10)
	older, newer := recs[:7], recs[7:]
	full := EncodeRecords(older)

	frameEnds := map[int]bool{0: true}
	off := 0
	for range older {
		_, next, err := readFrame(full, off)
		if err != nil {
			t.Fatal(err)
		}
		frameEnds[next] = true
		off = next
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		path := writeLogFile(t, dir, 1, nil)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		writeLogFile(t, dir, 2, newer)
		l, rec, err := openStore(dir, Options{Sync: SyncNever})
		if frameEnds[cut] {
			if err != nil {
				t.Fatalf("cut=%d on frame boundary: %v", cut, err)
			}
			if cut == len(full) {
				assertState(t, rec, acked[len(recs)], "boundary cut, full replay")
			}
			l.Close()
			continue
		}
		if err == nil {
			l.Close()
			t.Fatalf("cut=%d: mid-stream truncation recovered silently", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: error %v, want ErrCorrupt", cut, err)
		}
	}
}

// frameBounds returns the offset each frame of a whole log starts at, and
// the log's length last.
func frameBounds(t *testing.T, full []byte) []int {
	t.Helper()
	bounds := []int{0}
	for off := 0; off < len(full); {
		_, next, err := readFrame(full, off)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, next)
		off = next
	}
	return bounds
}

// openEdited writes an edited copy of full as dir's only log and opens it;
// a log that opens is closed again.
func openEdited(t *testing.T, dir string, full []byte, edit func([]byte)) (*Recovery, error) {
	t.Helper()
	b := append([]byte(nil), full...)
	edit(b)
	if err := os.WriteFile(filepath.Join(dir, logName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := openStore(dir, Options{Sync: SyncNever})
	if err == nil {
		if cerr := l.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}
	return rec, err
}

// checkKept asserts that a recovery kept exactly the log's first k records —
// their state and their clock — and truncated the rest as a torn tail.
func checkKept(t *testing.T, rec *Recovery, recs []Record, acked []map[string]Record, bounds []int, k int, label string) {
	t.Helper()
	assertState(t, rec, acked[k], label)
	var clock uint64
	if k > 0 {
		clock = recs[k-1].Version
	}
	if torn := int64(bounds[len(bounds)-1] - bounds[k]); rec.LogRecords != k || rec.Clock != clock || rec.TornBytes != torn {
		t.Fatalf("%s: %d records, clock %d, %d torn bytes; want %d, %d, %d",
			label, rec.LogRecords, rec.Clock, rec.TornBytes, k, clock, torn)
	}
}

// TestReplaySingleByteFlip flips every byte of the torn-prefix log, one at
// a time, under three masks. Damage to an earlier frame is mid-log
// corruption however the flip bends its length — the frames after it still
// decode — so recovery must refuse with ErrCorrupt rather than drop acked
// records as a torn tail. Damage to the last frame may instead read as its
// torn tail, and then recovery keeps exactly the frames before it.
func TestReplaySingleByteFlip(t *testing.T) {
	recs, acked := genLog(14)
	full := EncodeRecords(recs)
	bounds := frameBounds(t, full)
	last := len(recs) - 1
	dir := t.TempDir()
	for off := range full {
		frame := sort.SearchInts(bounds[1:], off+1)
		for _, mask := range []byte{0x01, 0x40, 0xff} {
			label := fmt.Sprintf("byte %d (frame %d) ^ %#x", off, frame, mask)
			rec, err := openEdited(t, dir, full, func(b []byte) { b[off] ^= mask })
			switch {
			case errors.Is(err, ErrCorrupt):
			case err != nil:
				t.Fatalf("%s: %v, want ErrCorrupt", label, err)
			case frame < last:
				t.Fatalf("%s: recovered %d records (%d torn bytes), want ErrCorrupt", label, rec.LogRecords, rec.TornBytes)
			default:
				checkKept(t, rec, recs, acked, bounds, last, label)
			}
		}
	}
}
