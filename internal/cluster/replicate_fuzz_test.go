package cluster

import (
	"maps"
	"testing"
)

// FuzzApplyReplicate holds the streamed replicate body to the replica's
// version guard. The input is applied with
// ApplyReplicate(from, false, epoch, body) twice over a replica seeded from
// "owner" with a live entry (k1 at v2) and a tombstone (k2 at v3). No input
// panics, and:
//
//   - a body that fails to decode is refused and changes nothing;
//   - Applied(owner) never decreases, and is what the call returns;
//   - an entry changes only as wal.Newer lets a record take effect over
//     it: to a newer version, or, for a delete at a put's own version, by
//     evicting the put; so no tombstone is replaced by an older put. The
//     check below asks for a newer version: an evicting delete of k1 needs
//     a frame at v2 whose CRC the mutator does not forge, and no seed
//     holds one;
//
// and applying the same body a second time changes nothing.
// testdata/fuzz/FuzzApplyReplicate seeds it with an empty body, a newer put
// and an older one, an older put over the tombstone, a delete, a new ID, a
// stale duplicate, and a body cut inside its last frame.
func FuzzApplyReplicate(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		n := &Node{replica: NewReplicaStore()}
		n.replica.Apply("owner", rput(2, "k1", "live"))
		n.replica.Apply("owner", rdel(3, "k2"))
		before, applied := copyEntries(n.replica), n.replica.Applied("owner")

		got, changed, err := n.ApplyReplicate("owner", false, n.Epoch(), body)
		after := copyEntries(n.replica)
		if err != nil {
			if !maps.Equal(after, before) || n.replica.Applied("owner") != applied {
				t.Fatalf("a refused body (%v) changed the replica: %+v -> %+v", err, before, after)
			}
			return
		}
		if now := n.replica.Applied("owner"); got != now || now < applied {
			t.Fatalf("Applied went %d -> %d, the call returned %d", applied, now, got)
		}
		for id, cur := range before {
			if now := after[id]; now != cur && now.Version <= cur.Version {
				t.Fatalf("entry %+v became %+v, not strictly newer", cur, now)
			}
		}
		if changed > 0 && maps.Equal(after, before) {
			t.Fatalf("the call reported %d changes and made none", changed)
		}

		again, changed, err := n.ApplyReplicate("owner", false, n.Epoch(), body)
		if err != nil || changed != 0 || again != got || !maps.Equal(copyEntries(n.replica), after) {
			t.Fatalf("a second apply changed %d entries (err %v, applied %d -> %d)", changed, err, got, again)
		}
	})
}
