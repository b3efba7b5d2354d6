package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Snapshot layout, little-endian:
//
//	[8]byte magic "CQPWAL01"
//	uint64  clock   store-global version clock at capture time
//	uint32  count   live profiles
//	count framed OpPut records (the log frame encoding)
//	uint32  crc32c  over every preceding byte
//
// The trailing whole-file CRC makes any torn or bit-flipped snapshot
// detectable as a unit; snapshots are written to a temp file, fsynced and
// renamed into place, so a crash mid-write leaves only an ignored *.tmp
// and the previous snapshot intact.
var snapshotMagic = [8]byte{'C', 'Q', 'P', 'W', 'A', 'L', '0', '1'}

// writeSnapshotFile atomically writes a snapshot of (clock, recs) to path:
// temp file in the same directory, fsync, rename. The caller fsyncs the
// directory afterwards to make the rename itself durable.
func writeSnapshotFile(path string, clock uint64, recs []Record) error {
	buf := encodeSnapshot(clock, recs)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// encodeSnapshot lays (clock, recs) out as a snapshot file: the records as
// puts, in ID order. Every record of a store's state has a version at most
// its clock and an ID of its own.
func encodeSnapshot(clock uint64, recs []Record) []byte {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	buf := make([]byte, 0, 20+64*len(recs))
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, clock)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		rec.Op = OpPut
		buf = appendFrame(buf, rec)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// loadSnapshot reads and fully verifies a snapshot. Any structural or
// checksum failure wraps ErrCorrupt: a renamed-into-place snapshot was
// durable, so damage to it is disk corruption, never a tolerable torn
// write.
func loadSnapshot(path string) (clock uint64, state map[string]Record, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return decodeSnapshot(path, buf)
}

// decodeSnapshot is loadSnapshot on the file's bytes. It accepts exactly what
// encodeSnapshot writes: puts in strictly ascending ID order, none versioned
// above the clock.
func decodeSnapshot(path string, buf []byte) (clock uint64, state map[string]Record, err error) {
	if len(buf) < 24 {
		return 0, nil, fmt.Errorf("%w: snapshot %s: %d bytes, shorter than any valid snapshot", ErrCorrupt, path, len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, fmt.Errorf("%w: snapshot %s: whole-file checksum mismatch", ErrCorrupt, path)
	}
	if [8]byte(body[:8]) != snapshotMagic {
		return 0, nil, fmt.Errorf("%w: snapshot %s: bad magic", ErrCorrupt, path)
	}
	clock = binary.LittleEndian.Uint64(body[8:])
	count := int(binary.LittleEndian.Uint32(body[16:]))
	if count > (len(body)-20)/(frameHeaderBytes+recordFixedBytes) {
		return 0, nil, fmt.Errorf("%w: snapshot %s: %d records cannot fit in %d bytes", ErrCorrupt, path, count, len(body))
	}
	state = make(map[string]Record, count)
	off, prev := 20, ""
	for i := 0; i < count; i++ {
		rec, next, ferr := readFrame(body, off)
		switch {
		case ferr != nil:
		case rec.Op != OpPut:
			ferr = fmt.Errorf("a %s, where a snapshot holds only puts", rec.Op)
		case i > 0 && rec.ID <= prev:
			ferr = fmt.Errorf("id %q does not follow %q", rec.ID, prev)
		case rec.Version > clock:
			ferr = fmt.Errorf("version %d above the snapshot clock %d", rec.Version, clock)
		}
		if ferr != nil {
			return 0, nil, fmt.Errorf("%w: snapshot %s: record %d: %v", ErrCorrupt, path, i, ferr)
		}
		state[rec.ID], off, prev = rec, next, rec.ID
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("%w: snapshot %s: %d trailing bytes after %d records", ErrCorrupt, path, len(body)-off, count)
	}
	return clock, state, nil
}

// readFrame decodes the frame starting at off in buf, returning the record
// and the offset just past it.
func readFrame(buf []byte, off int) (Record, int, error) {
	if off+frameHeaderBytes > len(buf) {
		return Record{}, 0, fmt.Errorf("short frame header (%d bytes left)", len(buf)-off)
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	sum := binary.LittleEndian.Uint32(buf[off+4:])
	if n <= 0 || n > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("implausible frame length %d", n)
	}
	if off+frameHeaderBytes+n > len(buf) {
		return Record{}, 0, fmt.Errorf("frame length %d overruns buffer", n)
	}
	payload := buf[off+frameHeaderBytes : off+frameHeaderBytes+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, fmt.Errorf("payload checksum mismatch")
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, off + frameHeaderBytes + n, nil
}
