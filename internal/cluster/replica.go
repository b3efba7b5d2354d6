package cluster

import (
	"sort"
	"sync"

	"cqp/internal/wal"
)

// ReplicaStore holds the version-guarded replica of every profile this
// node follows. Entries are raw WAL records — text, version, timestamp —
// exactly as the owner acked them; deletes are kept as tombstones so a
// reordered older put can never resurrect a deleted profile (the same
// rule WAL replay uses). All methods are safe for concurrent use.
type ReplicaStore struct {
	mu sync.RWMutex
	m  map[string]wal.Record
	// applied[owner] is the highest version applied from that owner's
	// replication stream — the cumulative ack the follower returns, and
	// the number lag is measured against. Per-peer streams deliver in
	// append order, so highest == highest contiguous.
	applied map[string]uint64
}

// NewReplicaStore builds an empty replica store.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{m: make(map[string]wal.Record), applied: make(map[string]uint64)}
}

// Apply merges one streamed record from owner under the version guard: it
// takes effect only over a strictly older entry for the same ID.
// Returns whether the record changed state (false = stale duplicate).
func (rs *ReplicaStore) Apply(owner string, rec wal.Record) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rec.Version > rs.applied[owner] {
		rs.applied[owner] = rec.Version
	}
	if cur, ok := rs.m[rec.ID]; ok && cur.Version >= rec.Version {
		return false
	}
	rs.m[rec.ID] = rec
	return true
}

// Install is the one way a snapshot enters the store: it makes this store's
// view of the IDs in scope — the keys owner owns, optionally one digest
// bucket of them — equal owner's snapshot recs, captured at clock. Outside
// scope only the IDs recs lists are touched. Within it the owner is the
// authority for everything its clock covers: a snapshot record replaces the
// local entry at versions ≤ clock, equal versions included (the only way a
// silently corrupted same-version replica heals), and a live entry ≤ clock
// that the snapshot lacks is deleted — absence carries deletions, which is
// sound because the owner counts a mutation in its clock only after its
// store holds it (ProfileStore.commit). An entry newer than clock (streamed
// while the snapshot was in flight) is kept, so a late install never rolls
// the stream back. Tombstones are never dropped by absence: an older
// snapshot may still be in flight, and without the tombstone it would
// resurrect the profile. Of an ID listed twice only the newest record
// counts. Returns how many entries changed.
func (rs *ReplicaStore) Install(owner string, clock uint64, recs []wal.Record, scope func(id string) bool) (changed int) {
	incoming := make(map[string]wal.Record, len(recs))
	for _, r := range recs {
		if prev, dup := incoming[r.ID]; !dup || r.Version > prev.Version {
			incoming[r.ID] = r
		}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for id, cur := range rs.m {
		if _, listed := incoming[id]; cur.Op == wal.OpPut && cur.Version <= clock && !listed && scope(id) {
			delete(rs.m, id)
			changed++
		}
	}
	for _, rec := range incoming {
		cur, ok := rs.m[rec.ID]
		if ok && cur.Version > clock && cur.Version >= rec.Version {
			continue
		}
		if !ok || cur != rec {
			changed++
		}
		rs.m[rec.ID] = rec
	}
	if clock > rs.applied[owner] {
		rs.applied[owner] = clock
	}
	return changed
}

// Get returns the live replica record for id (tombstones read as absent).
func (rs *ReplicaStore) Get(id string) (wal.Record, bool) {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	rec, ok := rs.m[id]
	if !ok || rec.Op != wal.OpPut {
		return wal.Record{}, false
	}
	return rec, true
}

// Applied returns the highest version applied from owner's stream.
func (rs *ReplicaStore) Applied(owner string) uint64 {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	return rs.applied[owner]
}

// Len counts live replica profiles (tombstones excluded).
func (rs *ReplicaStore) Len() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	n := 0
	for _, rec := range rs.m {
		if rec.Op == wal.OpPut {
			n++
		}
	}
	return n
}

// BucketDigest summarizes one anti-entropy bucket: how many live records
// it holds and the commutative checksum over their (id, version, text).
type BucketDigest struct {
	Count int    `json:"count"`
	Sum   uint64 `json:"sum"`
}

// Digest is the anti-entropy summary of a record set, one entry per
// bucket.
type Digest = [DigestBuckets]BucketDigest

// DigestRecords buckets a record set into the anti-entropy digest. Only
// live records count — the owner's store snapshot has no tombstones, so
// replica tombstones must not perturb the comparison.
func DigestRecords(recs []wal.Record) Digest {
	var d Digest
	for _, rec := range recs {
		if rec.Op == wal.OpPut {
			b := &d[Bucket(rec.ID)]
			b.Count++
			b.Sum += DigestChecksum(rec.ID, rec.Version, rec.Text)
		}
	}
	return d
}

// Digest computes this store's anti-entropy digest over the entries
// selected by pred (typically: owned by one peer). Garbage entries this
// node no longer follows still count — the resulting mismatch is what
// gets them repaired away.
func (rs *ReplicaStore) Digest(pred func(id string) bool) Digest {
	return DigestRecords(rs.OwnedBy(pred))
}

// OwnedBy lists the live replica records selected by pred, sorted by ID —
// the records this node would promote into its store if pred's owner died,
// or, with an all-true pred, the listing /cluster/state serves.
func (rs *ReplicaStore) OwnedBy(pred func(id string) bool) []wal.Record {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]wal.Record, 0)
	for id, rec := range rs.m {
		if rec.Op == wal.OpPut && pred(id) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TamperForTest mutates one replica entry in place — test hook for
// simulating silent corruption that anti-entropy must detect and repair.
func (rs *ReplicaStore) TamperForTest(id string, fn func(*wal.Record)) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.m[id]
	if !ok {
		return false
	}
	fn(&rec)
	rs.m[id] = rec
	return true
}

// DropForTest deletes one replica entry outright — test hook for
// simulating a missed update. Reports whether the entry existed.
func (rs *ReplicaStore) DropForTest(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, ok := rs.m[id]
	delete(rs.m, id)
	return ok
}
