package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Op is the kind of profile mutation a log record carries.
type Op uint8

const (
	// OpPut stores (or replaces) a profile.
	OpPut Op = 1
	// OpDelete removes a profile. Text is empty.
	OpDelete Op = 2
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one durable profile mutation. Version is the store-global
// version clock value the mutation was acked with; recovery restores the
// clock to the maximum version seen, so post-restart versions stay
// strictly monotone and `id@version` cache keys never alias across a
// crash.
type Record struct {
	Op        Op
	ID        string
	Text      string
	Version   uint64
	UpdatedAt int64 // unix nanoseconds
}

// Evicts reports whether rec evicts cur: a delete at the version of the put
// cur, logged when a record leaves for its next owner. It removes the put
// and leaves no tombstone, so the same record can come back.
func Evicts(cur, rec Record) bool {
	return rec.Op == OpDelete && cur.Op == OpPut && rec.Version == cur.Version
}

// Newer is the one version rule of the profile store, WAL replay, the
// replica and the handoff: rec takes effect over cur if newer or evicting.
func Newer(cur, rec Record) bool {
	return rec.Version > cur.Version || Evicts(cur, rec)
}

// Apply merges rec into m, a record map of puts and tombstones, under Newer,
// and reports whether it took effect.
func Apply(m map[string]Record, rec Record) bool {
	cur, ok := m[rec.ID]
	if ok && !Newer(cur, rec) {
		return false
	}
	if m[rec.ID] = rec; ok && Evicts(cur, rec) {
		delete(m, rec.ID)
	}
	return true
}

// Fold is the tombstone horizon's step at a ring commit: it drops from m
// the tombstones held (the previous Fold's result) holds unchanged and
// returns those m holds now, so a tombstone goes at its second Fold.
func Fold(m, held map[string]Record) map[string]Record {
	next := make(map[string]Record)
	for id, rec := range m {
		if held[id] == rec {
			delete(m, id)
		} else if rec.Op == OpDelete {
			next[id] = rec
		}
	}
	return next
}

// Frame layout, little-endian:
//
//	uint32 length   payload bytes (not counting this 8-byte header)
//	uint32 crc32c   Castagnoli CRC of the payload
//	payload:
//	    uint8  op
//	    uint64 version
//	    int64  updatedAt (unix ns)
//	    uint32 idLen,   idLen bytes of id
//	    uint32 textLen, textLen bytes of text
const (
	frameHeaderBytes = 8
	recordFixedBytes = 1 + 8 + 8 + 4 + 4

	// MaxRecordBytes bounds a single record's payload; a frame whose
	// declared length exceeds it cannot be a record this code wrote, so
	// recovery treats it as corruption (or a torn tail, if it points past
	// end-of-file).
	MaxRecordBytes = 16 << 20
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame encodes rec as one framed record appended to buf.
func appendFrame(buf []byte, rec Record) []byte {
	n := recordFixedBytes + len(rec.ID) + len(rec.Text)
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderBytes+n)...)
	payload := buf[start+frameHeaderBytes:]
	payload[0] = byte(rec.Op)
	binary.LittleEndian.PutUint64(payload[1:], rec.Version)
	binary.LittleEndian.PutUint64(payload[9:], uint64(rec.UpdatedAt))
	binary.LittleEndian.PutUint32(payload[17:], uint32(len(rec.ID)))
	copy(payload[21:], rec.ID)
	off := 21 + len(rec.ID)
	binary.LittleEndian.PutUint32(payload[off:], uint32(len(rec.Text)))
	copy(payload[off+4:], rec.Text)
	binary.LittleEndian.PutUint32(buf[start:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// decodePayload parses a CRC-verified payload into a Record.
func decodePayload(p []byte) (Record, error) {
	if len(p) < recordFixedBytes {
		return Record{}, fmt.Errorf("wal: payload %d bytes, need at least %d", len(p), recordFixedBytes)
	}
	rec := Record{
		Op:        Op(p[0]),
		Version:   binary.LittleEndian.Uint64(p[1:]),
		UpdatedAt: int64(binary.LittleEndian.Uint64(p[9:])),
	}
	if rec.Op != OpPut && rec.Op != OpDelete {
		return Record{}, fmt.Errorf("wal: unknown op %d", p[0])
	}
	idLen := int(binary.LittleEndian.Uint32(p[17:]))
	if idLen < 0 || 21+idLen+4 > len(p) {
		return Record{}, fmt.Errorf("wal: id length %d overruns %d-byte payload", idLen, len(p))
	}
	rec.ID = string(p[21 : 21+idLen])
	off := 21 + idLen
	textLen := int(binary.LittleEndian.Uint32(p[off:]))
	if textLen < 0 || off+4+textLen != len(p) {
		return Record{}, fmt.Errorf("wal: text length %d inconsistent with %d-byte payload", textLen, len(p))
	}
	rec.Text = string(p[off+4 : off+4+textLen])
	return rec, nil
}
