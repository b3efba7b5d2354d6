// Package server implements cqpd, the CQP serving daemon: an HTTP/JSON
// layer over one Personalizer that holds user profiles across queries (the
// paper's per-user Preference Space, Figure 2), admits requests through a
// bounded worker pool with per-request deadlines, and caches personalization
// results keyed by (query, profile version, problem, options).
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqp"
	"cqp/internal/wal"
)

// profileShards is the number of locks the store spreads profile IDs over.
// Mutations are rare next to reads, but the daemon serves many users; 16
// shards keep unrelated users' CRUD from contending.
const profileShards = 16

// errDurability marks a mutation rejected because its write-ahead log
// append failed: the store is unchanged, the client must not treat the
// mutation as applied, and the handler answers 503 rather than 400.
var errDurability = errors.New("server: durable log append failed")

// StoredProfile is one versioned profile held by the daemon.
type StoredProfile struct {
	ID string
	// Version increases on every mutation of any profile (a store-global
	// counter), so a deleted-then-recreated ID never reuses a version and
	// cache keys built from ID@Version can never alias stale entries. With
	// a durable store the clock is restored on recovery, so the contract
	// holds across crashes too.
	Version uint64
	// Profile is the parsed, schema-validated profile.
	Profile *cqp.Profile
	// Text is the profile source in the doi(...) = x format, as stored.
	Text      string
	UpdatedAt time.Time
}

// ProfileInfo is the listing view of a stored profile.
type ProfileInfo struct {
	ID          string    `json:"id"`
	Version     uint64    `json:"version"`
	Preferences int       `json:"preferences"`
	UpdatedAt   time.Time `json:"updated_at"`
}

// ProfileStore is a sharded, versioned profile store. All methods are safe
// for concurrent use. With a write-ahead log attached every mutation is
// appended (and, per policy, fsynced) before it becomes visible, so an
// acked mutation survives a crash; reads never touch the log.
type ProfileStore struct {
	schema *cqp.Schema
	clock  atomic.Uint64 // store-global version source
	shards [profileShards]profileShard

	// mutMu serializes mutations so the log sees records in version order
	// (recovery's replay guard and the monotone-clock contract rely on
	// it). Reads are untouched; mutations are rare and, when durable,
	// serialized by the single log file anyway.
	mutMu sync.Mutex
	log   *wal.Log // nil for a memory-only store
	// onMutate observes every committed record (the replication tap). Set
	// before serving; called under mutMu.
	onMutate func(wal.Record)
	// tombs holds the store's tombstones when a cluster node drives it; nil
	// standalone, where no record can arrive older than a delete. held and
	// heldSnap are the last fold's result and the log's LastSnapshot then.
	tombs, held map[string]wal.Record
	heldSnap    time.Time
}

type profileShard struct {
	mu sync.RWMutex
	m  map[string]*StoredProfile
}

// NewProfileStore builds an empty memory-only store validating profiles
// against the schema.
func NewProfileStore(s *cqp.Schema) *ProfileStore {
	ps := &ProfileStore{schema: s}
	for i := range ps.shards {
		ps.shards[i].m = make(map[string]*StoredProfile)
	}
	return ps
}

// NewDurableProfileStore opens (recovering if needed) the write-ahead log
// in dir and returns a store seeded with the recovered profiles, its
// version clock restored strictly monotone over every pre-crash version.
// The log's checkpoints are the store's own snapshots (Records).
func NewDurableProfileStore(s *cqp.Schema, dir string, opts wal.Options) (*ProfileStore, *wal.Recovery, error) {
	ps := NewProfileStore(s)
	log, rec, err := wal.Open(dir, opts, ps.Records)
	if err != nil {
		return nil, nil, err
	}
	ps.log = log
	for _, r := range rec.Profiles {
		sp, err := newStoredProfile(s, r)
		if err != nil {
			// Recovered bytes passed their checksums, so this is acked
			// state that no longer parses (e.g. a schema change). Refusing
			// to start beats silently dropping a user's preferences.
			log.Close()
			return nil, nil, fmt.Errorf("server: recovered profile %q invalid: %w", r.ID, err)
		}
		ps.shard(r.ID).m[r.ID] = sp
	}
	ps.clock.Store(rec.Clock)
	return ps, rec, nil
}

// keepTombstones makes the store remember deletes, starting with those its
// recovery rec (nil for a memory store) holds.
func (ps *ProfileStore) keepTombstones(rec *wal.Recovery) {
	ps.tombs = make(map[string]wal.Record)
	if rec != nil {
		for _, r := range rec.Tombstones {
			ps.tombs[r.ID] = r
		}
	}
}

// WAL returns the store's write-ahead log (nil for a memory-only store).
func (ps *ProfileStore) WAL() *wal.Log { return ps.log }

// SetOnMutate registers fn to observe every committed mutation as its WAL
// record — the replication tap. fn fires once the record is in the log
// (fsynced, per policy) and visible to Records, so a sender that empties
// its queue and then snapshots cannot lose a record between the two. It
// runs under the mutation lock and must not call back into the store.
// Register before serving; nil unregisters.
func (ps *ProfileStore) SetOnMutate(fn func(wal.Record)) {
	ps.mutMu.Lock()
	ps.onMutate = fn
	ps.mutMu.Unlock()
}

// newStoredProfile parses and schema-validates a put record's text — the
// one conversion from the log's and the wire's form of a profile to the
// one the store serves.
func newStoredProfile(s *cqp.Schema, rec wal.Record) (*StoredProfile, error) {
	prof, err := cqp.ParseProfile(rec.Text)
	if err != nil {
		return nil, err
	}
	if err := prof.Validate(s); err != nil {
		return nil, err
	}
	return &StoredProfile{
		ID:        rec.ID,
		Version:   rec.Version,
		Profile:   prof,
		Text:      rec.Text,
		UpdatedAt: time.Unix(0, rec.UpdatedAt),
	}, nil
}

// record is newStoredProfile's inverse: the put record that recreates sp.
func (sp *StoredProfile) record() wal.Record {
	return wal.Record{
		Op:        wal.OpPut,
		ID:        sp.ID,
		Text:      sp.Text,
		Version:   sp.Version,
		UpdatedAt: sp.UpdatedAt.UnixNano(),
	}
}

// commit is the one way a record enters the store: the version rule
// against the ID's put or tombstone (a refused record is no error), the log
// append (a failed one leaves the store unchanged), the shard entry and
// tombstone as wal.Apply leaves them, the replication tap, and only then
// the version clock — so a reader that loads clock c finds every mutation
// at a version ≤ c already in its shard, as Records promises. sp is the
// parsed profile of a put, nil for a delete. The caller holds mutMu, which
// keeps the log in version order.
func (ps *ProfileStore) commit(rec wal.Record, sp *StoredProfile) error {
	cur, exists := ps.tombs[rec.ID]
	if live, ok := ps.Get(rec.ID); ok {
		cur, exists = live.record(), true
	}
	if exists && !wal.Newer(cur, rec) {
		return nil
	}
	if ps.log != nil {
		if err := ps.log.Append(rec); err != nil {
			return fmt.Errorf("%w: %v", errDurability, err)
		}
	}
	sh := ps.shard(rec.ID)
	sh.mu.Lock()
	if sp != nil {
		sh.m[rec.ID] = sp
	} else {
		delete(sh.m, rec.ID)
	}
	sh.mu.Unlock()
	if ps.tombs != nil {
		delete(ps.tombs, rec.ID)
		if sp == nil && !(exists && wal.Evicts(cur, rec)) {
			ps.tombs[rec.ID] = rec
		}
	}
	if ps.onMutate != nil {
		ps.onMutate(rec)
	}
	if rec.Version > ps.clock.Load() {
		ps.clock.Store(rec.Version)
	}
	return nil
}

// each calls fn on every live profile, under its shard's read lock.
func (ps *ProfileStore) each(fn func(sp *StoredProfile)) {
	for i := range ps.shards {
		sh := &ps.shards[i]
		sh.mu.RLock()
		for _, sp := range sh.m {
			fn(sp)
		}
		sh.mu.RUnlock()
	}
}

// snapshot lists the live profiles selected by keep (nil = all) as put
// records, sorted by ID.
func (ps *ProfileStore) snapshot(keep func(id string) bool) []wal.Record {
	var out []wal.Record
	ps.each(func(sp *StoredProfile) {
		if keep == nil || keep(sp.ID) {
			out = append(out, sp.record())
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Records snapshots the store as WAL records: the version clock and every
// live profile, sorted by ID. The clock is read before the shard scan and
// commit publishes it after the shard entry, so the scan reflects every
// mutation at a version ≤ the returned clock and whatever it misses (a
// concurrent Put) is newer — the invariant a replica install needs to read
// absence at-or-below the clock as deletion. (ApplyRecord keeps the version
// a record's previous owner gave it, possibly below this clock; a snapshot
// that raced it is corrected by the resync every ring change ends with.)
func (ps *ProfileStore) Records() (uint64, []wal.Record) {
	clock := ps.clock.Load()
	return clock, ps.snapshot(nil)
}

// shard routes an ID to its lock stripe with FNV-1a inlined: hash/fnv's
// New32a allocates its hash state on every call, and this sits on the hot
// path of every profile lookup, so the loop keeps it allocation-free.
func (ps *ProfileStore) shard(id string) *profileShard {
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619 // FNV prime
	}
	return &ps.shards[h%profileShards]
}

// Put parses, validates and stores the profile text under id, creating or
// replacing, and returns the stored record with its new version. With a
// durable store the mutation is appended to the log before it is applied
// or acked; a failed append leaves the store unchanged and returns an
// error wrapping errDurability.
func (ps *ProfileStore) Put(id, text string) (*StoredProfile, error) {
	if id == "" {
		return nil, fmt.Errorf("server: empty profile id")
	}
	sp, err := newStoredProfile(ps.schema, wal.Record{ID: id, Text: text})
	if err != nil {
		return nil, err
	}
	ps.mutMu.Lock()
	defer ps.mutMu.Unlock()
	sp.Version = ps.clock.Load() + 1
	sp.UpdatedAt = time.Now()
	if err := ps.commit(sp.record(), sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// Get returns the stored profile, or false. The returned record is
// immutable: a later Put replaces the pointer rather than mutating it.
func (ps *ProfileStore) Get(id string) (*StoredProfile, bool) {
	sh := ps.shard(id)
	sh.mu.RLock()
	sp, ok := sh.m[id]
	sh.mu.RUnlock()
	return sp, ok
}

// Delete removes the profile, reporting whether it existed. The version
// clock still advances so caches keyed on it can never resurrect the ID.
// Like Put, a durable delete is logged before it is applied or acked.
func (ps *ProfileStore) Delete(id string) (bool, error) {
	ps.mutMu.Lock()
	defer ps.mutMu.Unlock()
	if _, ok := ps.Get(id); !ok {
		return false, nil
	}
	err := ps.commit(wal.Record{Op: wal.OpDelete, ID: id, Version: ps.clock.Load() + 1, UpdatedAt: time.Now().UnixNano()}, nil)
	return err == nil, err
}

// ApplyRecord installs one record, put or tombstone, from another node — a
// handoff stream or a replica promotion — at the version its original owner
// acked, under the version rule, so redelivery and stale copies are no-ops.
// A record that lands raises the store clock to at least its version and,
// on a durable store, is logged before it applies, like a local mutation.
func (ps *ProfileStore) ApplyRecord(rec wal.Record) error {
	if rec.ID == "" {
		return fmt.Errorf("server: record without id")
	}
	var sp *StoredProfile
	if rec.Op == wal.OpPut {
		var err error
		if sp, err = newStoredProfile(ps.schema, rec); err != nil {
			// The original owner validated this text before acking it, so a
			// parse failure means corruption in transit — refuse it.
			return fmt.Errorf("server: handed-off profile %q invalid: %w", rec.ID, err)
		}
	}
	ps.mutMu.Lock()
	defer ps.mutMu.Unlock()
	return ps.commit(rec, sp)
}

// SweepAndEvict atomically hands moved shards to their new owner at a
// membership cutover: under the mutation lock — so no Put or Delete can
// slip in between — it re-reads every record matching moved and the
// tombstones of moved IDs, passes them to flush, and only if flush succeeds
// evicts the live records, each logged at its own version (wal.Evicts). On
// flush failure nothing is evicted: the records stay served locally,
// redundant but never lost. Returns how many records were evicted.
//
// Each call is a ring commit, so it first folds the tombstones (wal.Fold).
// On a durable store a fold drops none unless a snapshot has landed since
// the last one, so the store keeps what replay rebuilds (DESIGN §13).
func (ps *ProfileStore) SweepAndEvict(moved func(id string) bool, flush func(recs []wal.Record) error) (int, error) {
	ps.mutMu.Lock()
	defer ps.mutMu.Unlock()
	if ps.log != nil {
		last := ps.log.Stats().LastSnapshot
		if last.Equal(ps.heldSnap) {
			ps.held = nil // no snapshot since the last fold: replay holds those deletes
		}
		ps.heldSnap = last
	}
	ps.held = wal.Fold(ps.tombs, ps.held)
	live := ps.snapshot(moved)
	recs := live
	for id, rec := range ps.tombs {
		if moved(id) {
			recs = append(recs, rec) // sent along, and kept until the horizon
		}
	}
	if err := flush(recs); err != nil {
		return 0, err
	}
	for evicted, rec := range live {
		if err := ps.commit(wal.Record{Op: wal.OpDelete, ID: rec.ID, Version: rec.Version, UpdatedAt: time.Now().UnixNano()}, nil); err != nil {
			// The un-evicted remainder stays local — already flushed to
			// the new owner, so redundant, never lost.
			return evicted, err
		}
	}
	return len(live), nil
}

// Close syncs and closes the store's log, if any (graceful shutdown).
func (ps *ProfileStore) Close() error {
	if ps.log == nil {
		return nil
	}
	return ps.log.Close()
}

// Len returns the number of stored profiles.
func (ps *ProfileStore) Len() int {
	n := 0
	ps.each(func(*StoredProfile) { n++ })
	return n
}

// List returns every profile's listing view, sorted by ID ascending — the
// deterministic order the /profiles endpoint documents and relies on.
func (ps *ProfileStore) List() []ProfileInfo {
	var out []ProfileInfo
	ps.each(func(sp *StoredProfile) {
		out = append(out, ProfileInfo{ID: sp.ID, Version: sp.Version, Preferences: sp.Profile.Len(), UpdatedAt: sp.UpdatedAt})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
