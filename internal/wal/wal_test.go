package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cqp/internal/fault"
)

func put(v uint64, id, text string) Record {
	return Record{Op: OpPut, ID: id, Text: text, Version: v, UpdatedAt: int64(v) * 1000}
}

func del(v uint64, id string) Record {
	return Record{Op: OpDelete, ID: id, Version: v, UpdatedAt: int64(v) * 1000}
}

// store is the model of the log's owner that the tests open a log with.
// Like cqpd's ProfileStore it holds one mutation lock across an Append and
// the applying of the record that follows it, and its records are the state
// the log checkpoints.
type store struct {
	*Log
	mu    sync.Mutex   // serializes Append and the apply after it
	smu   sync.RWMutex // guards clock and live
	clock uint64
	live  map[string]Record
}

// openStore opens dir's log with a model store seeded from its recovery.
func openStore(dir string, opts Options) (*store, *Recovery, error) {
	s := &store{live: map[string]Record{}}
	l, rec, err := Open(dir, opts, s.records)
	if err != nil {
		return nil, nil, err
	}
	s.Log, s.clock = l, rec.Clock
	for _, r := range rec.Profiles {
		s.live[r.ID] = r
	}
	return s, rec, nil
}

// Append logs rec and, once the log has accepted it, applies it.
func (s *store) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.Log.Append(rec); err != nil {
		return err
	}
	s.smu.Lock()
	if rec.Op == OpDelete {
		delete(s.live, rec.ID)
	} else {
		s.live[rec.ID] = rec
	}
	s.clock = max(s.clock, rec.Version)
	s.smu.Unlock()
	return nil
}

// records is the state function the log checkpoints.
func (s *store) records() (uint64, []Record) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	recs := make([]Record, 0, len(s.live))
	for _, r := range s.live {
		recs = append(recs, r)
	}
	return s.clock, recs
}

func mustOpen(t *testing.T, dir string, opts Options) (*store, *Recovery) {
	t.Helper()
	l, rec, err := openStore(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func mustAppend(t *testing.T, l *store, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

// liveState maps a recovery's profiles by ID for assertions.
func liveState(rec *Recovery) map[string]Record {
	m := make(map[string]Record, len(rec.Profiles))
	for _, r := range rec.Profiles {
		m[r.ID] = r
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{})
	if rec.Clock != 0 || len(rec.Profiles) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	mustAppend(t, l,
		put(1, "alice", "pa"),
		put(2, "bob", "pb"),
		del(3, "alice"),
		put(4, "bob", "pb2"),
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(put(5, "x", "y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec2.Clock != 4 {
		t.Fatalf("clock restored to %d, want 4", rec2.Clock)
	}
	if rec2.LogRecords != 4 || rec2.TornBytes != 0 {
		t.Fatalf("replayed %d records, %d torn bytes; want 4, 0", rec2.LogRecords, rec2.TornBytes)
	}
	st := liveState(rec2)
	if len(st) != 1 || st["bob"].Text != "pb2" || st["bob"].Version != 4 {
		t.Fatalf("recovered state %+v", st)
	}
	// Profiles come back sorted by ID.
	mustAppend(t, l2, put(5, "carol", "pc"))
	l2.Close()
	_, rec3 := mustOpen(t, dir, Options{})
	ids := make([]string, len(rec3.Profiles))
	for i, p := range rec3.Profiles {
		ids[i] = p.ID
	}
	if len(ids) != 2 || ids[0] != "bob" || ids[1] != "carol" {
		t.Fatalf("recovered IDs %v, want [bob carol]", ids)
	}
}

// writeLog builds a raw log file from framed records, bypassing the Log —
// the corruption and crash-window tables start from controlled bytes.
func writeLog(t *testing.T, dir string, seq uint64, recs ...Record) string {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	path := filepath.Join(dir, logName(seq))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// frameOffsets returns each record frame's start offset plus the file end.
func frameOffsets(t *testing.T, path string) []int {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{0}
	off := 0
	for off < len(buf) {
		_, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("frameOffsets: offset %d: %v", off, err)
		}
		off = next
		offs = append(offs, off)
	}
	return offs
}

// TestTornTail is the crash-mid-append table: a final record damaged in
// every shape a torn write can take must recover by truncation, keeping
// every record before it, and the log must accept appends afterwards.
func TestTornTail(t *testing.T) {
	base := []Record{put(1, "a", "ta"), put(2, "b", "tb"), put(3, "c", "tc")}
	cases := []struct {
		name string
		// mangle damages the final frame, given its start and the file size.
		mangle func(t *testing.T, path string, start, end int)
	}{
		{"partial header", func(t *testing.T, path string, start, end int) {
			truncateTo(t, path, start+3)
		}},
		{"partial payload", func(t *testing.T, path string, start, end int) {
			truncateTo(t, path, start+frameHeaderBytes+2)
		}},
		{"one byte short", func(t *testing.T, path string, start, end int) {
			truncateTo(t, path, end-1)
		}},
		{"crc of final frame flipped", func(t *testing.T, path string, start, end int) {
			flipByte(t, path, start+5) // inside the CRC field
		}},
		{"payload of final frame flipped", func(t *testing.T, path string, start, end int) {
			flipByte(t, path, start+frameHeaderBytes+1)
		}},
		{"garbage length pointing past EOF", func(t *testing.T, path string, start, end int) {
			patchByte(t, path, start+3, 0x7f) // length |= 0x7f000000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeLog(t, dir, 1, base...)
			offs := frameOffsets(t, path)
			tc.mangle(t, path, offs[len(offs)-2], offs[len(offs)-1])

			l, rec := mustOpen(t, dir, Options{})
			if rec.LogRecords != 2 || rec.TornBytes == 0 {
				t.Fatalf("recovered %d records, %d torn bytes; want 2 records and a truncation", rec.LogRecords, rec.TornBytes)
			}
			st := liveState(rec)
			if len(st) != 2 || st["a"].Text != "ta" || st["b"].Text != "tb" {
				t.Fatalf("state after torn tail: %+v", st)
			}
			if rec.Clock != 2 {
				t.Fatalf("clock %d, want 2", rec.Clock)
			}
			// The truncated log accepts appends and round-trips again.
			mustAppend(t, l, put(3, "d", "td"))
			l.Close()
			_, rec2 := mustOpen(t, dir, Options{})
			if st := liveState(rec2); len(st) != 3 || st["d"].Text != "td" {
				t.Fatalf("state after post-truncation append: %+v", st)
			}
		})
	}
}

// TestMidLogCorruption: damage before the final record means acked history
// has a hole; recovery must refuse loudly, not truncate silently.
func TestMidLogCorruption(t *testing.T) {
	base := []Record{put(1, "a", "ta"), put(2, "b", "tb"), put(3, "c", "tc")}
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string, offs []int)
	}{
		{"payload bit-flip in first record", func(t *testing.T, path string, offs []int) {
			flipByte(t, path, offs[0]+frameHeaderBytes+1)
		}},
		{"crc bit-flip in middle record", func(t *testing.T, path string, offs []int) {
			flipByte(t, path, offs[1]+4)
		}},
		{"length field shrunk mid-log", func(t *testing.T, path string, offs []int) {
			patchByte(t, path, offs[0], 1) // frame now ends strictly inside the file
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeLog(t, dir, 1, base...)
			tc.mangle(t, path, frameOffsets(t, path))
			_, _, err := openStore(dir, Options{})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open with mid-log corruption: %v, want ErrCorrupt", err)
			}
		})
	}
}

func truncateTo(t *testing.T, path string, n int) {
	t.Helper()
	if err := os.Truncate(path, int64(n)); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[off] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func patchByte(t *testing.T, path string, off int, v byte) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[off] = v
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRotation: the append after SnapshotEvery records must write a
// snapshot, rotate the log, and retire the old generation; recovery then
// starts from the snapshot and replays only the new log.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SnapshotEvery: 4})
	mustAppend(t, l,
		put(1, "a", "ta"), put(2, "b", "tb"), put(3, "c", "tc"), del(4, "a"))
	if names := dirNames(t, dir); !names[logName(1)] || names[snapName(2)] {
		t.Fatalf("before the fifth append dir = %v; want wal-1 and no snapshot", keys(names))
	}
	mustAppend(t, l, put(5, "d", "td"))
	names := dirNames(t, dir)
	if !names[snapName(2)] || !names[logName(2)] || names[logName(1)] || names[snapName(1)] {
		t.Fatalf("after rotation dir = %v; want exactly snap-2 + wal-2", keys(names))
	}
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.SnapshotSeq != 2 || rec.LogRecords != 1 {
		t.Fatalf("recovered from snapshot %d with %d log records; want 2, 1", rec.SnapshotSeq, rec.LogRecords)
	}
	st := liveState(rec)
	if _, ok := st["a"]; ok {
		t.Fatalf("deleted profile resurrected: %+v", st)
	}
	if len(st) != 3 || st["b"].Version != 2 || st["d"].Version != 5 || rec.Clock != 5 {
		t.Fatalf("state %+v clock %d", st, rec.Clock)
	}
}

// TestCheckpointCrashWindows reconstructs the directory states a crash can
// leave at each step of the rotate-then-snapshot protocol and checks every
// one recovers the full acked history.
func TestCheckpointCrashWindows(t *testing.T) {
	t.Run("rotated, snapshot never written", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir, 1, put(1, "a", "ta"), put(2, "b", "tb"))
		writeLog(t, dir, 2, put(3, "c", "tc"))
		l, rec := mustOpen(t, dir, Options{})
		defer l.Close()
		if rec.LogRecords != 3 || rec.Clock != 3 || len(rec.Profiles) != 3 {
			t.Fatalf("recovered %+v", rec)
		}
	})
	t.Run("snapshot landed, old generation not yet deleted", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir, 1, put(1, "a", "ta"), put(2, "b", "tb"))
		writeLog(t, dir, 2, put(3, "c", "tc"))
		if err := writeSnapshotFile(filepath.Join(dir, snapName(2)),
			2, []Record{put(1, "a", "ta"), put(2, "b", "tb")}); err != nil {
			t.Fatal(err)
		}
		l, rec := mustOpen(t, dir, Options{})
		defer l.Close()
		if rec.SnapshotSeq != 2 || rec.LogRecords != 1 || rec.Clock != 3 {
			t.Fatalf("recovered %+v", rec)
		}
		if names := dirNames(t, dir); names[logName(1)] {
			t.Fatal("superseded wal-1 not cleaned up")
		}
	})
	t.Run("abandoned tmp snapshot ignored and removed", func(t *testing.T) {
		dir := t.TempDir()
		writeLog(t, dir, 1, put(1, "a", "ta"))
		tmp := filepath.Join(dir, snapName(2)+".123.tmp")
		if err := os.WriteFile(tmp, []byte("partial snapshot garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec := mustOpen(t, dir, Options{})
		defer l.Close()
		if len(rec.Profiles) != 1 || rec.SnapshotSeq != 0 {
			t.Fatalf("recovered %+v", rec)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("tmp snapshot still present: %v", err)
		}
	})
	t.Run("version guard: older log record cannot regress snapshot state", func(t *testing.T) {
		dir := t.TempDir()
		// The snapshot knows a@10; a lower-versioned put in a replayed log
		// must lose.
		if err := writeSnapshotFile(filepath.Join(dir, snapName(2)),
			10, []Record{put(10, "a", "newest")}); err != nil {
			t.Fatal(err)
		}
		writeLog(t, dir, 2, put(3, "a", "stale"))
		l, rec := mustOpen(t, dir, Options{})
		defer l.Close()
		st := liveState(rec)
		if st["a"].Text != "newest" || rec.Clock != 10 {
			t.Fatalf("stale record won replay: %+v clock %d", st, rec.Clock)
		}
	})
}

// TestSnapshotCorruption: a snapshot is fsynced and renamed, so damage to
// it is never a tolerable torn write — recovery must fail loudly.
func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SnapshotEvery: 2})
	mustAppend(t, l, put(1, "a", "ta"), put(2, "b", "tb"), put(3, "c", "tc"))
	l.Close()
	path := filepath.Join(dir, snapName(2))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	flipByte(t, path, 12)
	_, _, err := openStore(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt snapshot: %v, want ErrCorrupt", err)
	}
}

// TestVersionClockMonotoneAcrossRestarts pins the cache-key contract: a
// version allocated after recovery is strictly greater than any pre-crash
// version, even when the latest mutation was a delete (whose version lives
// only in the log or the snapshot clock).
func TestVersionClockMonotoneAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	mustAppend(t, l, put(1, "a", "ta"), put(2, "b", "tb"), del(3, "b"))
	l.Close()

	l2, rec := mustOpen(t, dir, Options{})
	if rec.Clock != 3 {
		t.Fatalf("clock %d after delete-last, want 3", rec.Clock)
	}
	// The store resumes at clock+1; simulate and restart once more through
	// a snapshot so the clock survives via the snapshot header too.
	mustAppend(t, l2, put(rec.Clock+1, "c", "tc"))
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, rec3 := mustOpen(t, dir, Options{})
	defer l3.Close()
	if rec3.Clock != 4 || rec3.LogRecords != 0 {
		t.Fatalf("clock %d (%d log records) after snapshot restart, want 4 (0)", rec3.Clock, rec3.LogRecords)
	}
}

// TestConcurrentMutateWhileSnapshot hammers appends from several
// goroutines while tiny SnapshotEvery forces rotations and snapshot writes
// mid-traffic; run under -race this checks the lock protocol, and the
// final reopen checks no acked record was lost across any rotation.
func TestConcurrentMutateWhileSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SnapshotEvery: 8, Sync: SyncNever})
	var (
		mu    sync.Mutex
		clock uint64
		want  = map[string]Record{}
	)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("user-%d-%d", g, i%7)
				mu.Lock()
				clock++
				var rec Record
				if i%11 == 10 {
					rec = del(clock, id)
					delete(want, id)
				} else {
					rec = put(clock, id, fmt.Sprintf("text-%d-%d", g, i))
					want[id] = rec
				}
				if err := l.Append(rec); err != nil {
					mu.Unlock()
					t.Error(err)
					return
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if rec.Clock != clock {
		t.Fatalf("clock %d, want %d", rec.Clock, clock)
	}
	got := liveState(rec)
	if len(got) != len(want) {
		t.Fatalf("recovered %d profiles, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.Version != w.Version || g.Text != w.Text {
			t.Fatalf("profile %s: got %+v, want %+v", id, g, w)
		}
	}
}

// TestFaultPoints drives the wal.append and wal.fsync injection points: a
// faulted append must leave the on-disk log unchanged, so the version can
// be safely reallocated.
func TestFaultPoints(t *testing.T) {
	t.Run("wal.append", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{})
		defer l.Close()
		mustAppend(t, l, put(1, "a", "ta"))
		plan, err := fault.NewPlan(1, fault.Rule{Point: fault.WALAppend, Mode: fault.ModeErr})
		if err != nil {
			t.Fatal(err)
		}
		fault.Arm(plan)
		err = l.Append(put(2, "b", "tb"))
		fault.Disarm()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append under wal.append fault: %v", err)
		}
		mustAppend(t, l, put(2, "b", "tb-retry")) // version safely reused
	})
	t.Run("wal.fsync truncates the unacked frame", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := mustOpen(t, dir, Options{Sync: SyncAlways})
		mustAppend(t, l, put(1, "a", "ta"))
		plan, err := fault.NewPlan(1, fault.Rule{Point: fault.WALFsync, Mode: fault.ModeErr, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		fault.Arm(plan)
		err = l.Append(put(2, "b", "failed-write"))
		fault.Disarm()
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("append under wal.fsync fault: %v", err)
		}
		// The caller reuses version 2 for the retry; recovery must see the
		// retry's content, not the unacked first attempt's.
		mustAppend(t, l, put(2, "b", "acked-write"))
		l.Close()
		_, rec := mustOpen(t, dir, Options{})
		st := liveState(rec)
		if st["b"].Text != "acked-write" || rec.LogRecords != 2 {
			t.Fatalf("recovered %+v (%d records); unacked frame survived", st, rec.LogRecords)
		}
	})
}

// TestSyncIntervalPolicy: under SyncInterval a background ticker fsyncs
// the active log, and Close stops it: the ticker fsyncs no more, and a
// later Append gets ErrClosed. Each fsync passes the wal.fsync fault point,
// whose call count the test reads; fault plans are process-global, so the
// test does not run in parallel.
func TestSyncIntervalPolicy(t *testing.T) {
	const every = 2 * time.Millisecond
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncEvery: every})
	plan, err := fault.NewPlan(1, fault.Rule{Point: fault.WALFsync, Mode: fault.ModeLatency, Latency: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	fsyncs := func() int64 { return plan.Counts()[fault.WALFsync].Calls }

	mustAppend(t, l, put(1, "a", "ta"), put(2, "b", "tb"))
	for deadline := time.Now().Add(5 * time.Second); fsyncs() < 3; time.Sleep(every) {
		if time.Now().After(deadline) {
			t.Fatalf("the ticker fsynced %d times in 5 s at a %v interval", fsyncs(), every)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	closed := fsyncs()
	time.Sleep(10 * every)
	if n := fsyncs(); n != closed {
		t.Fatalf("the ticker fsynced %d times after Close", n-closed)
	}
	if err := l.Append(put(3, "c", "tc")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close: %v, want ErrClosed", err)
	}
}

func dirNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]bool, len(entries))
	for _, e := range entries {
		m[e.Name()] = true
	}
	return m
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRecordRoundTrip sanity-checks the frame codec on awkward payloads.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		put(1, "", ""),
		put(2, "id-with-ünicode-⌘", "text\nwith\nnewlines"),
		put(3, strings.Repeat("i", 300), strings.Repeat("x", 100_000)),
		del(4, "gone"),
	}
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r)
	}
	off := 0
	for i, want := range recs {
		got, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("trailing bytes: %d != %d", off, len(buf))
	}
}
