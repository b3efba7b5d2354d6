// Package wal is the durable persistence layer under cqpd's ProfileStore:
// an append-only write-ahead log of profile mutations plus periodic
// snapshots, so the per-user Preference Spaces the daemon serves (and the
// store-global version clock its cache keys depend on) survive a process
// crash.
//
// Durability contract. Append returns only after the record is written to
// the active log (and, under SyncAlways, fsynced); the caller acks the
// mutation to its client only after Append succeeds. Recovery (Open)
// rebuilds the exact acked state: newest valid snapshot, then every log
// with an equal-or-higher sequence replayed in order. A torn tail — a
// partially written final record, the signature of a crash mid-append —
// is truncated and recovery proceeds; a bad checksum anywhere before the
// final record is disk corruption and fails recovery loudly rather than
// silently serving a hole in acked history.
//
// File layout inside the data directory:
//
//	wal-<seq>.log    append-only record frames (record.go)
//	snap-<seq>.snap  atomic snapshot (snapshot.go)
//	*.tmp            in-progress snapshot writes; ignored and removed
//
// A checkpoint rotates first and snapshots second: create wal-<n+1>.log,
// switch appends to it, write the state of the log's owner (Open's state
// function) to snap-<n+1>.snap atomically, then delete files with older
// sequences. Every crash window in that protocol leaves a recoverable
// directory: until the snapshot rename lands, recovery still sees snap-<n>
// plus wal-<n> and wal-<n+1>.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cqp/internal/fault"
	"cqp/internal/obs"
)

// ErrCorrupt marks recovery failures that truncation cannot repair:
// checksum or structural damage before the log's final record, or any
// damage inside a snapshot.
var ErrCorrupt = errors.New("wal: corrupt")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// SyncPolicy says when appends reach the platter.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Append returns: an acked mutation
	// survives power loss, at one fsync of latency per mutation.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery): an
	// acked mutation survives a process crash immediately and power loss
	// after at most one interval.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache (Close still syncs).
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (always|interval|never)", s)
}

// Options tunes a Log. The zero value is SyncAlways, snapshot every 1024
// records, no metrics.
type Options struct {
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period (default 100ms).
	SyncEvery time.Duration
	// SnapshotEvery is how many appended records trigger a checkpoint
	// (default 1024; negative disables automatic checkpoints).
	SnapshotEvery int
	// Metrics, when set, receives the wal gauges and counters.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	return o
}

// Recovery reports what Open reconstructed.
type Recovery struct {
	// Clock is the restored store-global version clock: the maximum
	// version in the snapshot and every replayed record. The store must
	// resume allocating versions strictly above it.
	Clock uint64
	// Profiles is the recovered live state, sorted by ID (OpPut records).
	Profiles []Record
	// Tombstones are the deletes logged after the snapshot (it holds puts).
	Tombstones []Record
	// SnapshotSeq is the sequence of the snapshot loaded (0 when none).
	SnapshotSeq uint64
	// LogRecords counts records replayed from logs on top of the snapshot.
	LogRecords int
	// TornBytes is how many bytes of torn tail were truncated from the
	// newest log (0 for a clean shutdown).
	TornBytes int64
	// Duration is the wall-clock time recovery took.
	Duration time.Duration
}

// Log is the durable log: one active append-only file and the checkpoint
// machinery. All methods are safe for concurrent use; the caller must
// serialize version assignment and the applying of each record with Append
// (cqpd's ProfileStore holds one mutation mutex across all three), so that
// log order is version order and state, cut inside an Append, holds exactly
// the records appended before it.
type Log struct {
	dir   string
	opts  Options
	state func() (clock uint64, recs []Record)

	mu           sync.Mutex
	f            *os.File
	seq          uint64
	logBytes     int64
	sinceSnap    int
	snapshotting bool
	closed       bool
	buf          []byte

	dirf     *os.File
	lastSnap time.Time
	stop     chan struct{}
	done     chan struct{}
}

func logName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }

// parseSeq extracts the sequence from a wal/snap file name, or 0.
func parseSeq(name, prefix, suffix string) uint64 {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0
	}
	return seq
}

// Open recovers the directory's durable state and returns the log ready
// for appends. A missing or empty directory starts a fresh store. state
// returns the owner's version clock and live records; checkpoints persist
// it.
func Open(dir string, opts Options, state func() (clock uint64, recs []Record)) (*Log, *Recovery, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dirf, err := os.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: opts, state: state, dirf: dirf}
	rec, err := l.recover()
	if err != nil {
		dirf.Close()
		return nil, nil, err
	}
	rec.Duration = time.Since(start)
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	l.gauge("wal_recovery_ms").Set(rec.Duration.Milliseconds())
	l.publishLocked()
	return l, rec, nil
}

// recover loads the newest snapshot, replays the logs at or above its
// sequence, truncates a torn tail on the newest log, and opens the newest
// log for appending.
func (l *Log) recover() (*Recovery, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var logSeqs, snapSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
			os.Remove(filepath.Join(l.dir, name)) // abandoned snapshot write
		case parseSeq(name, "wal-", ".log") != 0:
			logSeqs = append(logSeqs, parseSeq(name, "wal-", ".log"))
		case parseSeq(name, "snap-", ".snap") != 0:
			snapSeqs = append(snapSeqs, parseSeq(name, "snap-", ".snap"))
		}
	}
	sort.Slice(logSeqs, func(i, j int) bool { return logSeqs[i] < logSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })

	rec := &Recovery{}
	replayed := map[string]Record{}
	if n := len(snapSeqs); n > 0 {
		rec.SnapshotSeq = snapSeqs[n-1]
		var err error
		if rec.Clock, replayed, err = loadSnapshot(filepath.Join(l.dir, snapName(rec.SnapshotSeq))); err != nil {
			return nil, err
		}
	}
	var live []uint64
	for _, seq := range logSeqs {
		if seq < rec.SnapshotSeq {
			// Superseded by the snapshot; a crash between snapshot rename
			// and cleanup left it behind.
			os.Remove(filepath.Join(l.dir, logName(seq)))
			continue
		}
		live = append(live, seq)
	}
	for i, seq := range live {
		if err := l.replayLog(filepath.Join(l.dir, logName(seq)), i == len(live)-1, replayed, rec); err != nil {
			return nil, err
		}
	}

	for _, r := range replayed {
		if r.Op == OpPut {
			rec.Profiles = append(rec.Profiles, r)
		} else {
			rec.Tombstones = append(rec.Tombstones, r)
		}
	}
	sort.Slice(rec.Profiles, func(i, j int) bool { return rec.Profiles[i].ID < rec.Profiles[j].ID })

	if len(live) > 0 {
		l.seq = live[len(live)-1]
		f, err := os.OpenFile(filepath.Join(l.dir, logName(l.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.logBytes = f, st.Size()
	} else {
		l.seq = rec.SnapshotSeq + 1
		if err := l.createLog(l.seq); err != nil {
			return nil, err
		}
	}
	l.lastSnap = time.Now()
	return rec, nil
}

// replayLog applies one log file's records into state and counts them in
// rec, whose clock passes every version replayed, evicted ones too. Only the
// final log (last=true) may carry a torn tail, which is truncated away; the
// same damage anywhere else is ErrCorrupt.
func (l *Log) replayLog(path string, last bool, state map[string]Record, rec *Recovery) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for off := 0; off < len(buf); {
		r, next, ferr := readFrame(buf, off)
		if ferr != nil {
			if !last || !l.tornTail(buf, off) {
				return fmt.Errorf("%w: %s: record at offset %d: %v", ErrCorrupt, path, off, ferr)
			}
			rec.TornBytes = int64(len(buf) - off)
			if err := os.Truncate(path, int64(off)); err != nil {
				return err
			}
			l.counter("wal_torn_tail_truncations_total").Inc()
			return nil
		}
		Apply(state, r) // a record the snapshot already holds is a no-op
		rec.LogRecords++
		rec.Clock = max(rec.Clock, r.Version)
		off = next
	}
	return nil
}

// tornTail decides whether the undecodable frame at off is a torn tail
// rather than mid-log corruption. A torn write is the last append: it leaves
// one incomplete frame and nothing after it. So the frame is torn only if
// the bytes from off fit in one frame, its declared length reaches
// end-of-file, and no checksum-valid frame decodes after its start. Anything
// else is corruption: truncating there would drop acked history.
func (l *Log) tornTail(buf []byte, off int) bool {
	rest := len(buf) - off
	if rest > frameHeaderBytes+MaxRecordBytes {
		return false
	}
	if rest > frameHeaderBytes && frameHeaderBytes+int(binary.LittleEndian.Uint32(buf[off:])) < rest {
		return false
	}
	for p := off + 1; p+frameHeaderBytes+recordFixedBytes <= len(buf); p++ {
		if _, _, err := readFrame(buf, p); err == nil {
			return false
		}
	}
	return true
}

// createLog creates and fsyncs a fresh empty log file and makes it the
// append target.
func (l *Log) createLog(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, logName(seq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := l.dirf.Sync(); err != nil {
		f.Close()
		return err
	}
	l.f, l.seq, l.logBytes = f, seq, 0
	return nil
}

// Append writes one mutation record durably. It returns only after the
// record is in the log (and fsynced, under SyncAlways); on any error the
// record is not part of acked history and the caller must not apply the
// mutation. The caller serializes version assignment with Append calls.
// After SnapshotEvery records Append rotates before it writes rec, so rec
// opens the new log, and snapshots the state before it returns, while the
// caller has yet to apply rec: the state then holds exactly what the old
// log holds.
func (l *Log) Append(rec Record) error {
	if err := fault.Inject(fault.WALAppend); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	var old uint64
	if l.opts.SnapshotEvery > 0 && l.sinceSnap >= l.opts.SnapshotEvery && !l.snapshotting {
		old = l.rotateLocked()
	}
	err := l.writeLocked(rec)
	l.publishLocked()
	l.mu.Unlock()
	if old != 0 && l.writeSnapshot(old) != nil {
		// The rotation already happened, so recovery still works from the
		// previous snapshot plus both logs; the next threshold crossing
		// retries.
		l.counter("wal_snapshot_errors_total").Inc()
	}
	return err
}

// writeLocked appends rec's frame to the active log (mu held).
func (l *Log) writeLocked(rec Record) error {
	l.buf = appendFrame(l.buf[:0], rec)
	if _, err := l.f.Write(l.buf); err != nil {
		// Remove whatever partial frame landed: a failed Append must leave
		// the log holding acked history only, or a caller that reuses the
		// version for its next (successful) attempt would lose the replay
		// race against this dead record.
		l.undoLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.logBytes += int64(len(l.buf))
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.logBytes -= int64(len(l.buf))
			l.undoLocked()
			return err
		}
	}
	l.sinceSnap++
	l.counter("wal_appends_total").Inc()
	return nil
}

// undoLocked truncates the active log back to l.logBytes (mu held),
// discarding an un-acked frame after a failed write or fsync. If even the
// truncate fails the log can no longer prove it holds exactly acked
// history, so it fail-stops: every later Append returns ErrClosed.
func (l *Log) undoLocked() {
	if err := l.f.Truncate(l.logBytes); err != nil {
		l.closed = true
		l.f.Close()
	}
}

// rotateLocked (mu held) switches appends to a fresh log with the next
// sequence and returns the old log's, or 0 when the new log could not be
// created. The old log file stays on disk until the snapshot lands.
func (l *Log) rotateLocked() uint64 {
	old, oldSeq := l.f, l.seq
	if err := l.createLog(oldSeq + 1); err != nil {
		l.counter("wal_snapshot_errors_total").Inc()
		return 0 // keep appending to the old log; retry later
	}
	old.Close()
	l.sinceSnap = 0
	l.snapshotting = true
	return oldSeq
}

// writeSnapshot persists the owner's state as snap-(seq+1) and retires every
// log and snapshot up to seq. Appends proceed concurrently into the new log;
// replaying them over this snapshot is version-guarded.
func (l *Log) writeSnapshot(seq uint64) error {
	defer func() {
		l.mu.Lock()
		l.snapshotting = false
		l.mu.Unlock()
	}()
	clock, recs := l.state()
	if err := writeSnapshotFile(filepath.Join(l.dir, snapName(seq+1)), clock, recs); err != nil {
		return err
	}
	if err := l.dirf.Sync(); err != nil {
		return err
	}
	// Older files are now superseded; recovery needs snap-(seq+1) and
	// wal-(seq+1) only. A directory-read error here is reported, not
	// swallowed: the snapshot itself landed, so recovery stays correct, but
	// the caller counts the failed prune and the next checkpoint retries it.
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: snapshot prune: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if s := parseSeq(name, "wal-", ".log"); s != 0 && s <= seq {
			os.Remove(filepath.Join(l.dir, name))
		}
		if s := parseSeq(name, "snap-", ".snap"); s != 0 && s <= seq {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	l.mu.Lock()
	l.lastSnap = time.Now()
	l.publishLocked()
	l.mu.Unlock()
	l.counter("wal_snapshots_total").Inc()
	return nil
}

// Checkpoint forces a rotate-and-snapshot cycle (test and admin hook); like
// Append, it must not race the owner's applying of a record.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.snapshotting {
		l.mu.Unlock()
		return nil
	}
	old := l.rotateLocked()
	l.mu.Unlock()
	if old == 0 {
		return fmt.Errorf("wal: checkpoint: rotation failed")
	}
	return l.writeSnapshot(old)
}

// syncLocked fsyncs the active log (mu held), counting failures and
// consulting the wal.fsync fault point.
func (l *Log) syncLocked() error {
	if err := fault.Inject(fault.WALFsync); err != nil {
		l.counter("wal_fsync_errors_total").Inc()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.counter("wal_fsync_errors_total").Inc()
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// syncLoop is the SyncInterval background syncer.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				_ = l.syncLocked() // counted; next tick retries
			}
			l.mu.Unlock()
		}
	}
}

// Close syncs and closes the log; the graceful-shutdown path. Appends
// after Close return ErrClosed.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if cerr := l.dirf.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats is a point-in-time view for /healthz and tests.
type Stats struct {
	Seq                  uint64
	LogBytes             int64
	RecordsSinceSnapshot int
	LastSnapshot         time.Time
}

// Stats snapshots the log's counters and refreshes the age gauge.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.publishLocked()
	return Stats{
		Seq:                  l.seq,
		LogBytes:             l.logBytes,
		RecordsSinceSnapshot: l.sinceSnap,
		LastSnapshot:         l.lastSnap,
	}
}

// publishLocked pushes the gauges (mu held; no-ops without a registry).
func (l *Log) publishLocked() {
	l.gauge("wal_log_bytes").Set(l.logBytes)
	l.gauge("wal_records_since_snapshot").Set(int64(l.sinceSnap))
	if !l.lastSnap.IsZero() {
		l.gauge("wal_last_snapshot_age_ms").Set(time.Since(l.lastSnap).Milliseconds())
	}
}

// A nil registry hands out nil metrics, and those ignore updates.
func (l *Log) gauge(name string) *obs.Gauge { return l.opts.Metrics.Gauge(name) }

func (l *Log) counter(name string) *obs.Counter { return l.opts.Metrics.Counter(name) }
