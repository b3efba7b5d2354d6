package cluster

import (
	"reflect"
	"testing"

	"cqp/internal/wal"
)

func rput(v uint64, id, text string) wal.Record {
	return wal.Record{Op: wal.OpPut, ID: id, Text: text, Version: v, UpdatedAt: int64(v)}
}

func rdel(v uint64, id string) wal.Record {
	return wal.Record{Op: wal.OpDelete, ID: id, Version: v, UpdatedAt: int64(v)}
}

func TestReplicaApplyVersionGuard(t *testing.T) {
	rs := NewReplicaStore()
	if !rs.Apply("n1", rput(3, "u1", "new")) {
		t.Fatal("fresh record rejected")
	}
	// Older and equal versions are stale duplicates.
	if rs.Apply("n1", rput(2, "u1", "old")) || rs.Apply("n1", rput(3, "u1", "dup")) {
		t.Fatal("stale record applied")
	}
	rec, ok := rs.Get("u1")
	if !ok || rec.Text != "new" {
		t.Fatalf("got %+v ok=%v", rec, ok)
	}
	if rs.Applied("n1") != 3 {
		t.Fatalf("applied = %d, want 3", rs.Applied("n1"))
	}
}

// TestReplicaTombstoneBlocksResurrection: a reordered older put must not
// bring back a deleted profile.
func TestReplicaTombstoneBlocksResurrection(t *testing.T) {
	rs := NewReplicaStore()
	rs.Apply("n1", rput(1, "u1", "alive"))
	rs.Apply("n1", rdel(5, "u1"))
	if rs.Apply("n1", rput(4, "u1", "zombie")) {
		t.Fatal("put below tombstone version applied")
	}
	if _, ok := rs.Get("u1"); ok {
		t.Fatal("deleted profile resurrected")
	}
	if rs.Len() != 0 {
		t.Fatalf("Len = %d, want 0", rs.Len())
	}
}

// TestReplicaFullSync: the one snapshot install, rule by rule. Every row
// starts from the same replica, installs one snapshot from n1 at clock 5
// over n1's keys (optionally one bucket of them), and names what must be
// true afterwards.
func TestReplicaFullSync(t *testing.T) {
	owned := map[string]bool{"gone": true, "kept": true, "newer": true, "dead": true}
	kept := rput(2, "kept", "stays, snapshot includes it")
	otherBucket := (Bucket("gone") + 1) % DigestBuckets
	keptInOtherBucket := 0
	if Bucket("kept") == otherBucket {
		keptInOtherBucket = 1 // absent from the empty bucket snapshot: deleted
	}
	cases := []struct {
		name    string
		recs    []wal.Record
		bucket  int
		live    map[string]string // id → text that must be live afterwards
		absent  []string          // ids that must not be live afterwards
		listing []string          // if set, OwnedBy(all) in order
		changed int
	}{
		{
			name: "absence at or below the clock deletes, newer and foreign entries survive",
			recs: []wal.Record{kept}, bucket: allBuckets,
			live:    map[string]string{"kept": kept.Text, "newer": "streamed past the snapshot clock", "other": "different owner's shard"},
			absent:  []string{"gone", "dead"},
			listing: []string{"kept", "newer", "other"},
			changed: 1,
		},
		{
			name: "equal-version corruption heals",
			recs: []wal.Record{rput(1, "gone", "the owner's bytes"), kept}, bucket: allBuckets,
			live:    map[string]string{"gone": "the owner's bytes", "kept": kept.Text},
			changed: 1,
		},
		{
			name: "an entry newer than the clock beats the snapshot's older copy",
			recs: []wal.Record{rput(1, "gone", "will be deleted by absence"), kept, rput(4, "newer", "stale")}, bucket: allBuckets,
			live:    map[string]string{"newer": "streamed past the snapshot clock"},
			changed: 0,
		},
		{
			name: "a snapshot record above a superseded tombstone is installed",
			recs: []wal.Record{rput(1, "gone", "will be deleted by absence"), kept, rput(4, "dead", "recreated")}, bucket: allBuckets,
			live:    map[string]string{"dead": "recreated"},
			changed: 1,
		},
		{
			name: "a bucket install leaves the owner's other buckets alone",
			recs: nil, bucket: otherBucket,
			live:    map[string]string{"gone": "will be deleted by absence"},
			changed: keptInOtherBucket,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := NewReplicaStore()
			rs.Apply("n1", rput(1, "gone", "will be deleted by absence"))
			rs.Apply("n1", kept)
			rs.Apply("n1", rput(9, "newer", "streamed past the snapshot clock"))
			rs.Apply("n1", rdel(3, "dead"))
			rs.Apply("n2", rput(3, "other", "different owner's shard"))

			changed := rs.Install("n1", 5, tc.recs, func(id string) bool {
				return owned[id] && (tc.bucket == allBuckets || Bucket(id) == tc.bucket)
			})
			if changed != tc.changed {
				t.Errorf("changed = %d, want %d", changed, tc.changed)
			}
			for id, text := range tc.live {
				if rec, ok := rs.Get(id); !ok || rec.Text != text {
					t.Errorf("%s after install: %+v live=%v, want text %q", id, rec, ok, text)
				}
			}
			for _, id := range tc.absent {
				if _, ok := rs.Get(id); ok {
					t.Errorf("%s still live after install", id)
				}
			}
			if tc.listing != nil {
				var got []string
				for _, rec := range rs.OwnedBy(func(string) bool { return true }) {
					got = append(got, rec.ID)
				}
				if !reflect.DeepEqual(got, tc.listing) {
					t.Errorf("listing = %v, want %v", got, tc.listing)
				}
			}
			// The tombstone outlives a snapshot that no longer mentions it:
			// an older put arriving later must still be refused.
			if _, recreated := tc.live["dead"]; !recreated && rs.Apply("n1", rput(2, "dead", "zombie")) {
				t.Error("put below a tombstone applied after the install")
			}
			if rs.Applied("n1") != 9 {
				t.Errorf("applied = %d, want 9 (stream had advanced past clock)", rs.Applied("n1"))
			}
		})
	}
}
