package server

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cqp"
	"cqp/internal/cluster"
	"cqp/internal/wal"
)

// newNodeServer builds a daemon that a cluster node named "a" drives, with
// the other members listed in others. The members' URLs are a closed local
// port: the node probes them and finds them down, and no test here routes.
func newNodeServer(t *testing.T, others ...string) *Server {
	t.Helper()
	peers := map[string]string{"a": "http://127.0.0.1:1"}
	for _, id := range others {
		peers[id] = "http://127.0.0.1:1"
	}
	s, err := New(cqp.SyntheticMovieDB(300, 1), Config{NodeID: "a", ClusterPeers: peers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, s) })
	return s
}

// TestHandoffBodyCannotResurrect: a handoff put delivered again after the
// target deleted the ID leaves the profile deleted. The delete is remembered
// as a tombstone, and the redelivered put is older than it.
func TestHandoffBodyCannotResurrect(t *testing.T) {
	ps := newNodeServer(t).store
	put := wal.Record{Op: wal.OpPut, ID: "k", Text: storedText, Version: 5, UpdatedAt: 5}
	if err := ps.ApplyRecord(put); err != nil {
		t.Fatal(err)
	}
	if ok, err := ps.Delete("k"); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if err := ps.ApplyRecord(put); err != nil {
		t.Fatal(err)
	}
	if sp, ok := ps.Get("k"); ok {
		t.Fatalf("a redelivered put brought the deleted profile back at v%d", sp.Version)
	}
}

// TestEvictionKeepsLaterPutAcrossRestart: an eviction is logged at the
// evicted record's own version, so a put the key's next owner versioned
// above it, handed back and acked, is what a restart recovers.
func TestEvictionKeepsLaterPutAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *ProfileStore {
		ps, _, err := NewDurableProfileStore(cqp.MovieSchema(), dir, wal.Options{Sync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	ps := open()
	if _, err := ps.Put("k", storedText); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ps.Put(fmt.Sprintf("u%d", i), storedText); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := ps.SweepAndEvict(func(id string) bool { return id == "k" }, func([]wal.Record) error { return nil }); n != 1 || err != nil {
		t.Fatalf("sweep: %d %v", n, err)
	}
	back := wal.Record{Op: wal.OpPut, ID: "k", Text: storedText, Version: 10, UpdatedAt: 10}
	if err := ps.ApplyRecord(back); err != nil {
		t.Fatal(err)
	}
	if sp, ok := ps.Get("k"); !ok || sp.Version != 10 {
		t.Fatalf("live store: k = %+v (%v), want v10", sp, ok)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps = open()
	defer ps.Close()
	if sp, ok := ps.Get("k"); !ok || sp.Version != 10 {
		t.Fatalf("after restart: k = %+v (%v), want the acked v10", sp, ok)
	}
}

// TestPromotionCarriesTombstone: when a force-removed owner's keys are
// promoted from the replica at Commit, a key that owner had deleted becomes
// a tombstone at the new owner, and the new owner's clock passes it. So the
// new owner's next put of the ID is newer than the dead owner's tombstone,
// and a follower that holds that tombstone takes the put, on the stream and
// by snapshot install alike.
func TestPromotionCarriesTombstone(t *testing.T) {
	s := newNodeServer(t, "d")
	ps, node := s.store, s.Cluster()
	var k string
	for i := 0; k == ""; i++ {
		if id := fmt.Sprintf("key-%d", i); node.Owner(id) == "d" {
			k = id
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := ps.Put(fmt.Sprintf("local-%d", i), storedText); err != nil {
			t.Fatal(err)
		}
	}
	dead := []wal.Record{
		{Op: wal.OpPut, ID: k, Text: storedText, Version: 60, UpdatedAt: 60},
		{Op: wal.OpDelete, ID: k, Version: 70, UpdatedAt: 70},
	}
	for _, rec := range dead {
		node.Replica().Apply("d", rec)
	}

	st := node.State()
	delete(st.Members, "d")
	st.Epoch++
	if err := node.Prepare(st); err != nil {
		t.Fatal(err)
	}
	if err := node.Commit(st.Epoch); err != nil {
		t.Fatal(err)
	}
	if node.Owner(k) != "a" {
		t.Fatalf("%s owned by %s after the commit", k, node.Owner(k))
	}
	if clock, _ := ps.Records(); clock < 70 {
		t.Fatalf("new owner's clock %d is below the dead owner's tombstone at v70", clock)
	}
	if err := ps.ApplyRecord(dead[0]); err != nil {
		t.Fatal(err)
	}
	if sp, ok := ps.Get(k); ok {
		t.Fatalf("an older copy came back over the promoted tombstone at v%d", sp.Version)
	}

	sp, err := ps.Put(k, storedText)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Version <= 70 {
		t.Fatalf("new owner's put of %s at v%d, not above the tombstone at v70", k, sp.Version)
	}
	clock, _ := ps.Records()
	for name, deliver := range map[string]func(*cluster.ReplicaStore){
		"stream": func(rs *cluster.ReplicaStore) { rs.Apply("a", sp.record()) },
		"install": func(rs *cluster.ReplicaStore) {
			rs.Install("a", clock, []wal.Record{sp.record()}, func(string) bool { return true })
		},
	} {
		rs := cluster.NewReplicaStore()
		for _, rec := range dead {
			rs.Apply("d", rec)
		}
		deliver(rs)
		if rec, ok := rs.Get(k); !ok || rec.Version != sp.Version {
			t.Errorf("%s: follower holds %+v (live %v), want the new owner's v%d", name, rec, ok, sp.Version)
		}
	}
}

// openClusterStore opens a durable store in dir that keeps tombstones, as a
// cluster node's store does.
func openClusterStore(t *testing.T, dir string, snapshotEvery int) *ProfileStore {
	t.Helper()
	ps, rec, err := NewDurableProfileStore(cqp.MovieSchema(), dir, wal.Options{Sync: wal.SyncNever, SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatal(err)
	}
	ps.keepTombstones(rec)
	return ps
}

// TestRecoveryEqualsLiveStore: the store's state is what replay of its log
// rebuilds. Seeded random sequences over a handful of IDs mix Put, Delete,
// ApplyRecord of puts and deletes at random versions, and SweepAndEvict of
// one ID (each sweep also counts toward the tombstone horizon), on a
// durable store that keeps tombstones and checkpoints every few records or
// never. After each round the store is closed and reopened, and the clock
// and every ID's Get, version and text, must read as before the close.
func TestRecoveryEqualsLiveStore(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	texts := []string{storedText, "doi(MOVIE.year = 1990) = 0.5\n"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		every := []int{7, 1000}[seed%2] // checkpoints often, or never
		ps := openClusterStore(t, dir, every)
		for round := 0; round < 4; round++ {
			for step := 0; step < 60; step++ {
				id := ids[rng.Intn(len(ids))]
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = ps.Put(id, texts[rng.Intn(len(texts))])
				case 1:
					_, err = ps.Delete(id)
				case 2:
					clock, _ := ps.Records()
					rec := wal.Record{Op: wal.OpPut, ID: id, Text: texts[rng.Intn(len(texts))], Version: 1 + uint64(rng.Int63n(int64(clock)+3))}
					if rng.Intn(3) == 0 {
						rec.Op, rec.Text = wal.OpDelete, ""
					}
					err = ps.ApplyRecord(rec)
				case 3:
					_, err = ps.SweepAndEvict(func(x string) bool { return x == id }, func([]wal.Record) error { return nil })
				}
				if err != nil {
					t.Fatalf("seed %d round %d step %d: %v", seed, round, step, err)
				}
			}
			live := map[string]*StoredProfile{}
			for _, id := range ids {
				live[id], _ = ps.Get(id)
			}
			clock, _ := ps.Records()
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			ps = openClusterStore(t, dir, every)
			if now, _ := ps.Records(); now != clock {
				t.Fatalf("seed %d round %d: clock %d recovered as %d", seed, round, clock, now)
			}
			for _, id := range ids {
				got, _ := ps.Get(id)
				if want := live[id]; (got == nil) != (want == nil) || got != nil && (got.Version != want.Version || got.Text != want.Text) {
					t.Fatalf("seed %d round %d: %s recovered as %+v, live store held %+v", seed, round, id, got, want)
				}
			}
		}
		ps.Close()
	}
}

// TestStoreTombstoneHorizon: a tombstone a cluster node's store holds
// outlives one ring commit and is gone after the second. A durable store
// also waits until a snapshot has compacted the delete out of its log, so
// that a restart never replays a tombstone the live store dropped.
func TestStoreTombstoneHorizon(t *testing.T) {
	s := newNodeServer(t, "b", "c")
	ps, node := s.store, s.Cluster()
	older := wal.Record{Op: wal.OpPut, ID: "k", Text: storedText, Version: 1}
	if err := ps.ApplyRecord(older); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for i, leaver := range []string{"b", "c"} {
		st := node.State()
		delete(st.Members, leaver)
		st.Epoch++
		if err := node.Prepare(st); err != nil {
			t.Fatal(err)
		}
		if err := node.Commit(st.Epoch); err != nil {
			t.Fatal(err)
		}
		if _, held := ps.tombs["k"]; held != (i == 0) {
			t.Fatalf("after commit %d the tombstone is held: %v", i+1, held)
		}
	}

	ps = openClusterStore(t, t.TempDir(), 1000)
	defer ps.Close()
	if _, err := ps.Put("k", storedText); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Delete("k"); err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		if _, err := ps.SweepAndEvict(func(string) bool { return false }, func([]wal.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	sweep()
	if _, held := ps.tombs["k"]; !held {
		t.Fatal("a durable store dropped a tombstone whose delete its log still replays")
	}
	if err := ps.WAL().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sweep()
	if len(ps.tombs) != 0 {
		t.Fatalf("%d tombstones held after two sweeps and a checkpoint", len(ps.tombs))
	}
}

// TestStandaloneStoreKeepsNoTombstone: a store no cluster node drives
// versions every Put and Delete above all it holds, so it remembers no
// delete, however many it takes.
func TestStandaloneStoreKeepsNoTombstone(t *testing.T) {
	ps := newStore()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("u%d", i%100)
		if _, err := ps.Put(id, storedText); err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if ps.Len() != 0 || len(ps.tombs) != 0 {
		t.Fatalf("standalone store holds %d profiles and %d tombstones", ps.Len(), len(ps.tombs))
	}
}

// TestFinalSweepCarriesTombstone: when a ring change moves a key, the old
// owner's final sweep sends the key's tombstone along with the live
// records, so the new owner refuses an older copy and its clock passes the
// delete, whose version no live record carries.
func TestFinalSweepCarriesTombstone(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2"}, false)
	old := tc.node("n1").store
	k := tc.keyOwnedBy("n1")
	for i := 0; i < 30; i++ {
		if _, err := old.Put(fmt.Sprintf("%s-%d", k, i), storedText); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := old.Put(k, storedText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Delete(k); err != nil {
		t.Fatal(err)
	}
	deleted, _ := old.Records()
	if _, err := tc.node("n2").Cluster().RemoveNode(context.Background(), "n1", false); err != nil {
		t.Fatal(err)
	}
	ps := tc.node("n2").store
	if clock, _ := ps.Records(); clock < deleted {
		t.Fatalf("new owner's clock %d is below the moved key's delete at v%d", clock, deleted)
	}
	if err := ps.ApplyRecord(sp.record()); err != nil {
		t.Fatal(err)
	}
	if got, ok := ps.Get(k); ok {
		t.Fatalf("an older copy of %s came back at the new owner at v%d", k, got.Version)
	}
}

// TestTombstoneSurvivesRestart: a durable store that keeps tombstones
// resumes with the deletes its log still replays, so an older copy
// delivered after a restart stays refused.
func TestTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ps := openClusterStore(t, dir, 1000)
	put := wal.Record{Op: wal.OpPut, ID: "k", Text: storedText, Version: 5, UpdatedAt: 5}
	if err := ps.ApplyRecord(put); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps = openClusterStore(t, dir, 1000)
	defer ps.Close()
	if err := ps.ApplyRecord(put); err != nil {
		t.Fatal(err)
	}
	if sp, ok := ps.Get("k"); ok {
		t.Fatalf("after a restart an older put brought k back at v%d", sp.Version)
	}
}
