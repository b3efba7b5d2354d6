package cluster

import (
	"strings"
	"testing"

	"cqp/internal/wal"
)

// FuzzInstall holds the one snapshot install to its promises over any peer
// sync body. The input is decoded with DecodeSyncPayload and installed twice
// over a replica seeded with a live entry, a tombstone, an entry newer than
// the seeds' clock of 3 and an entry outside the scope (IDs starting with
// "k"). After the first install:
//
//   - no entry outside the scope changes or appears unless the payload
//     lists its ID (Install's rule: outside scope only listed IDs move);
//   - an entry newer than the payload's clock is replaced only by a
//     payload record wal.Newer lets take effect over it: a newer one, or a
//     delete at a put's own version, which evicts the put (the check asks
//     for a newer one: evicting k3 needs a delete frame at v5, whose CRC
//     the mutator does not forge, and no seed holds one);
//   - a tombstone whose ID the payload omits is kept;
//   - Applied(owner) does not decrease and covers the clock;
//   - every payload ID not kept by the rule above holds a record of
//     the payload's highest version for that ID;
//
// and the second install changes nothing. testdata/fuzz/FuzzInstall seeds
// it with an empty snapshot, a snapshot that heals and keeps, a record
// outside the scope, and one ID listed twice (the seeded tombstone at v3,
// then a put at v2).
func FuzzInstall(f *testing.F) {
	inScope := func(id string) bool { return strings.HasPrefix(id, "k") }
	f.Fuzz(func(t *testing.T, body []byte) {
		clock, recs, err := DecodeSyncPayload(body)
		if err != nil {
			return
		}
		rs := NewReplicaStore()
		for _, rec := range []wal.Record{rput(2, "k1", "live"), rdel(3, "k2"), rput(5, "k3", "newer"), rput(1, "z1", "foreign")} {
			rs.Apply("owner", rec)
		}
		before := copyEntries(rs)
		applied := rs.Applied("owner")

		rs.Install("owner", clock, recs, inScope)
		after := copyEntries(rs)

		best := make(map[string]uint64)
		for _, r := range recs {
			if v, ok := best[r.ID]; !ok || r.Version > v {
				best[r.ID] = r.Version
			}
		}
		for id, cur := range before {
			now, ok := after[id]
			switch {
			case !inScope(id) && now != cur && !hasID(recs, id):
				t.Fatalf("entry %q outside the scope changed: %+v -> %+v", id, cur, now)
			case cur.Version > clock && (!ok || now != cur && now.Version <= cur.Version):
				t.Fatalf("entry %+v newer than clock %d became %+v", cur, clock, now)
			case cur.Op == wal.OpDelete && now != cur && !hasID(recs, id):
				t.Fatalf("tombstone %+v dropped by a payload that omits it: %+v", cur, now)
			}
		}
		for id, now := range after {
			if _, ok := before[id]; !ok && !inScope(id) && !hasID(recs, id) {
				t.Fatalf("entry %+v outside the scope appeared", now)
			}
			v, listed := best[id]
			if !listed {
				continue
			}
			if cur, ok := before[id]; ok && cur.Version > clock && cur.Version >= v && now == cur {
				continue
			}
			if now.Version != v || !hasRecord(recs, now) {
				t.Fatalf("ID %q holds %+v, not a payload record at its highest version %d", id, now, v)
			}
		}
		if got := rs.Applied("owner"); got < applied || got < clock {
			t.Fatalf("Applied went %d -> %d over clock %d", applied, got, clock)
		}

		if changed := rs.Install("owner", clock, recs, inScope); changed != 0 {
			t.Fatalf("a second install of the same payload changed %d entries", changed)
		}
		for id, now := range copyEntries(rs) {
			if after[id] != now {
				t.Fatalf("a second install moved %q: %+v -> %+v", id, after[id], now)
			}
		}
	})
}

func copyEntries(rs *ReplicaStore) map[string]wal.Record {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	m := make(map[string]wal.Record, len(rs.m))
	for id, rec := range rs.m {
		m[id] = rec
	}
	return m
}

func hasID(recs []wal.Record, id string) bool {
	for _, r := range recs {
		if r.ID == id {
			return true
		}
	}
	return false
}

func hasRecord(recs []wal.Record, rec wal.Record) bool {
	for _, r := range recs {
		if r == rec {
			return true
		}
	}
	return false
}
