package cluster

import (
	"sort"
	"sync"

	"cqp/internal/wal"
)

// ReplicaStore holds the replica of every profile this node follows: raw
// WAL records, exactly as the owner acked them, in a record map under the
// one version rule (wal.Apply). Deletes are kept as tombstones, so a
// reordered older put cannot resurrect a deleted profile, until the second
// ring commit after they land (Fold). All methods are safe for concurrent
// use.
type ReplicaStore struct {
	mu sync.RWMutex
	m  map[string]wal.Record
	// applied[owner] is the highest version applied from that owner's
	// stream: the cumulative ack, and what lag is measured against. Streams
	// deliver in append order, so highest == highest contiguous.
	applied map[string]uint64
	held    map[string]wal.Record // what the last Fold left
}

// NewReplicaStore builds an empty replica store.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{m: make(map[string]wal.Record), applied: make(map[string]uint64)}
}

// Apply merges one streamed record from owner under the version rule.
// Returns whether the record changed state (false = stale duplicate).
func (rs *ReplicaStore) Apply(owner string, rec wal.Record) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rec.Version > rs.applied[owner] {
		rs.applied[owner] = rec.Version
	}
	return wal.Apply(rs.m, rec)
}

// Fold takes one step of the tombstone horizon (wal.Fold) at a ring commit.
func (rs *ReplicaStore) Fold() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.held = wal.Fold(rs.m, rs.held)
}

// Install is the one way a snapshot enters the store: it makes this store's
// view of the IDs in scope — the keys owner owns, optionally one digest
// bucket of them — equal owner's snapshot recs, captured at clock; outside
// scope only listed IDs are touched. The owner is the authority for what
// its clock covers, so Install first clears the entries ≤ clock of every
// listed ID and every live entry in scope: a listed record replaces the
// local one, equal versions included (how same-version corruption heals),
// and absence carries deletions, which is sound because the owner counts a
// mutation in its clock only after its store holds it. Then recs apply
// under the version rule, which keeps an entry newer than clock unless recs
// hold a newer one. A tombstone is never dropped by absence: an older
// snapshot may still be in flight. Returns how many entries changed.
func (rs *ReplicaStore) Install(owner string, clock uint64, recs []wal.Record, scope func(id string) bool) (changed int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	was := make(map[string]wal.Record) // every entry Install may change, as it was
	claim := func(id string) {
		if _, seen := was[id]; !seen {
			cur := rs.m[id]
			if was[id] = cur; cur.Version <= clock {
				delete(rs.m, id)
			}
		}
	}
	for id, cur := range rs.m {
		if cur.Op == wal.OpPut && scope(id) {
			claim(id)
		}
	}
	for _, rec := range recs {
		claim(rec.ID)
		wal.Apply(rs.m, rec)
	}
	for id, cur := range was {
		if rs.m[id] != cur {
			changed++
		}
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
	if rec := rs.m[id]; rec.Op == wal.OpPut {
		return rec, true
	}
	return wal.Record{}, false
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

// DigestRecords buckets a set of live records into the anti-entropy
// digest.
func DigestRecords(recs []wal.Record) Digest {
	var d Digest
	for _, rec := range recs {
		b := &d[Bucket(rec.ID)]
		b.Count++
		b.Sum += DigestChecksum(rec.ID, rec.Version, rec.Text)
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
// with an all-true pred, the listing /cluster/state serves.
func (rs *ReplicaStore) OwnedBy(pred func(id string) bool) []wal.Record {
	return rs.records(func(rec wal.Record) bool { return rec.Op == wal.OpPut && pred(rec.ID) })
}

// records lists the entries, tombstones included, that keep selects,
// sorted by ID.
func (rs *ReplicaStore) records(keep func(rec wal.Record) bool) []wal.Record {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	out := make([]wal.Record, 0)
	for _, rec := range rs.m {
		if keep(rec) {
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
