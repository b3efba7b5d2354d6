package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"cqp/internal/wal"
)

// modelOwner is the owner side of the install oracle: a map, a monotone
// clock that counts a mutation only after the map holds it, and the log of
// every mutation in order (the replication stream).
type modelOwner struct {
	clock uint64
	live  map[string]wal.Record
	log   []wal.Record
}

func (o *modelOwner) mutate(rng *rand.Rand, ids []string) {
	id := ids[rng.Intn(len(ids))]
	rec := rput(o.clock+1, id, fmt.Sprintf("text-%d", rng.Intn(1000)))
	if _, ok := o.live[id]; ok && rng.Intn(3) == 0 {
		rec = rdel(o.clock+1, id)
		delete(o.live, id)
	} else {
		o.live[id] = rec
	}
	o.log = append(o.log, rec)
	o.clock++
}

// modelSnapshot is one captured sync payload, possibly still in flight.
type modelSnapshot struct {
	clock  uint64
	bucket int
	recs   []wal.Record
}

// capture snapshots the way ProfileStore.Records does — clock first, scan
// second — with up to two mutations landing in between, so a snapshot can
// hold records newer than its clock and miss records deleted after it.
func (o *modelOwner) capture(rng *rand.Rand, ids []string, bucket int) modelSnapshot {
	s := modelSnapshot{clock: o.clock, bucket: bucket}
	for k := rng.Intn(3); k > 0; k-- {
		o.mutate(rng, ids)
	}
	for _, rec := range o.live {
		if bucket == allBuckets || Bucket(rec.ID) == bucket {
			s.recs = append(s.recs, rec)
		}
	}
	return s
}

// TestReplicaInstallSchedules is the oracle for the one snapshot install
// and the version-guarded stream beside it: thousands of seeded schedules
// of owner mutations, in-order stream delivery with in-place batch
// redelivery (what the sender guarantees) or wholesale loss (queue
// overflow), snapshots of the whole key space or one bucket captured at
// arbitrary points and installed arbitrarily late and in any order, and
// replica entries corrupted or dropped in place. After every step:
//
//   - an entry newer than an installed snapshot's clock survives the install
//     (unless the snapshot itself carries a newer record for the ID);
//   - another owner's entries are never touched;
//   - no live replica entry is older than a tombstone the stream delivered
//     for its ID (no resurrection) — suspended for an ID once the test
//     drops its entry, which is the replica forgetting what it was told;
//
// and once the stream is quiet, one whole-scope install makes the replica's
// live set, versions, texts and all 16 bucket digests equal the owner's.
func TestReplicaInstallSchedules(t *testing.T) {
	const schedules, steps = 2500, 60
	ids := make([]string, 24)
	for i := range ids {
		ids[i] = fmt.Sprintf("k%d", i)
	}
	owned := func(id string) bool { return id[0] == 'k' }
	foreign := []wal.Record{rput(3, "z1", "another owner's"), rdel(900, "z2")}

	for seed := int64(1); seed <= schedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &modelOwner{live: map[string]wal.Record{}}
		rs := NewReplicaStore()
		for _, rec := range foreign {
			rs.Apply("p", rec)
		}
		var (
			next, lo, hi int                   // stream cursor; last delivered batch log[lo:hi]
			inflight     []modelSnapshot       // captured, not yet (or not for the last time) installed
			tombstone    = map[string]uint64{} // id → newest tombstone the stream delivered
		)
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		deliver := func(from, to int) {
			for _, rec := range o.log[from:to] {
				rs.Apply("o", rec)
				if rec.Op == wal.OpDelete && rec.Version > tombstone[rec.ID] {
					tombstone[rec.ID] = rec.Version
				}
			}
		}
		install := func(step int, s modelSnapshot) {
			inScope := func(id string) bool {
				return owned(id) && (s.bucket == allBuckets || Bucket(id) == s.bucket)
			}
			incoming := map[string]uint64{}
			for _, rec := range s.recs {
				incoming[rec.ID] = rec.Version
			}
			before := map[string]wal.Record{}
			for id, rec := range rs.m {
				before[id] = rec
			}
			rs.Install("o", s.clock, s.recs, inScope)
			for id, was := range before {
				now, ok := rs.m[id]
				switch {
				case !inScope(id):
					if !ok || now != was {
						fail(step, "install at clock %d (bucket %d) touched out-of-scope %+v → %+v", s.clock, s.bucket, was, now)
					}
				case was.Version > s.clock && incoming[id] <= was.Version:
					if !ok || now != was {
						fail(step, "install at clock %d lost newer entry %+v → %+v (present %v)", s.clock, was, now, ok)
					}
				}
			}
		}
		check := func(step int) {
			for id, rec := range rs.m {
				if rec.Op == wal.OpPut && rec.Version < tombstone[id] {
					fail(step, "%s live at version %d below delivered tombstone %d", id, rec.Version, tombstone[id])
				}
			}
		}

		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				o.mutate(rng, ids)
			case op < 5 && next < len(o.log): // the next batch, in order
				lo, hi = next, min(len(o.log), next+1+rng.Intn(4))
				deliver(lo, hi)
				next = hi
			case op == 5: // the sender retries the batch it has in hand
				deliver(lo, hi)
			case op == 6 && rng.Intn(4) == 0: // queue overflow: everything pending is lost
				next, lo, hi = len(o.log), 0, 0
			case op == 7:
				bucket := allBuckets
				if rng.Intn(2) == 0 {
					bucket = rng.Intn(DigestBuckets)
				}
				inflight = append(inflight, o.capture(rng, ids, bucket))
			case op == 8 && len(inflight) > 0: // any captured snapshot, however old, possibly again later
				i := rng.Intn(len(inflight))
				install(step, inflight[i])
				if rng.Intn(3) > 0 {
					inflight = append(inflight[:i], inflight[i+1:]...)
				}
			case op == 9:
				if liveNow := rs.OwnedBy(owned); len(liveNow) > 0 {
					id := liveNow[rng.Intn(len(liveNow))].ID
					if rng.Intn(2) == 0 {
						rs.TamperForTest(id, func(r *wal.Record) { r.Text = "CORRUPT " + r.Text })
					} else {
						rs.DropForTest(id)
						delete(tombstone, id)
					}
				}
			}
			check(step)
		}

		// Quiescence: the stream ends (delivered or lost), then one fresh
		// whole-scope snapshot is installed.
		if rng.Intn(2) == 0 {
			deliver(next, len(o.log))
		}
		final := modelSnapshot{clock: o.clock, bucket: allBuckets}
		for _, rec := range o.live {
			final.recs = append(final.recs, rec)
		}
		install(steps, final)
		check(steps)
		got := rs.OwnedBy(owned)
		if len(got) != len(o.live) {
			fail(steps, "replica holds %d live records, owner %d", len(got), len(o.live))
		}
		for _, rec := range got {
			if want := o.live[rec.ID]; rec != want {
				fail(steps, "replica %+v, owner %+v", rec, want)
			}
		}
		if d, want := rs.Digest(owned), DigestRecords(final.recs); d != want {
			fail(steps, "digests differ after convergence:\n replica %v\n owner   %v", d, want)
		}
		for _, rec := range foreign {
			if now := rs.m[rec.ID]; now != rec {
				fail(steps, "foreign entry %+v became %+v", rec, now)
			}
		}
	}
}
