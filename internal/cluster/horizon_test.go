package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cqp/internal/wal"
)

// commitWithout commits, on n alone, a ring that drops member id.
func commitWithout(t *testing.T, n *Node, id string) {
	t.Helper()
	st := n.State()
	delete(st.Members, id)
	st.Epoch++
	if err := n.Prepare(st); err != nil {
		t.Fatal(err)
	}
	if err := n.Commit(st.Epoch); err != nil {
		t.Fatal(err)
	}
}

func (rs *ReplicaStore) tombstones() int {
	rs.mu.RLock()
	defer rs.mu.RUnlock()
	n := 0
	for _, rec := range rs.m {
		if rec.Op == wal.OpDelete {
			n++
		}
	}
	return n
}

// TestReplicaTombstoneHorizon: under put/delete churn a follower's
// tombstones outlive one ring change and are all gone after the second,
// while the live records stay.
func TestReplicaTombstoneHorizon(t *testing.T) {
	n, err := New(Config{Self: "a", Peers: map[string]string{
		"a": "http://127.0.0.1:1", "o": "http://127.0.0.1:1", "x": "http://127.0.0.1:1", "y": "http://127.0.0.1:1",
	}})
	if err != nil {
		t.Fatal(err)
	}
	rs := n.Replica()
	v := uint64(0)
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("k%d", i%40)
		v++
		rs.Apply("o", rput(v, id, "text"))
		if i%3 != 0 {
			v++
			rs.Apply("o", rdel(v, id))
		}
	}
	tombs, live := rs.tombstones(), rs.Len()
	if tombs == 0 || live == 0 {
		t.Fatalf("churn left %d tombstones and %d live records", tombs, live)
	}
	commitWithout(t, n, "x")
	if got := rs.tombstones(); got != tombs {
		t.Fatalf("one ring change dropped tombstones: %d -> %d", tombs, got)
	}
	commitWithout(t, n, "y")
	if got := rs.tombstones(); got != 0 || rs.Len() != live {
		t.Fatalf("after two ring changes %d tombstones and %d live records, want 0 and %d", got, rs.Len(), live)
	}
}

// TestPullSpanningEpochChangeInstallsNothing: a sync payload whose pull
// began at one epoch and answered at another may predate a delete whose
// tombstone the horizon has dropped, so it is discarded whole.
func TestPullSpanningEpochChangeInstallsNothing(t *testing.T) {
	var n *Node
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := n.State()
		st.Epoch++
		if _, err := n.AdoptIfNewer(st); err != nil {
			t.Error(err)
		}
		w.Write(EncodeSyncPayload(5, []wal.Record{rput(3, "k", "stale")}))
	}))
	defer owner.Close()
	var err error
	n, err = New(Config{Self: "a", Peers: map[string]string{"a": "http://127.0.0.1:1", "o": owner.URL}})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := n.peer("o")
	changed, err := n.pull(context.Background(), 5*time.Second, p, allBuckets)
	if err == nil || changed != 0 {
		t.Fatalf("pull across an epoch change: %d changed, err %v; want an error and no change", changed, err)
	}
	if rs := n.Replica(); rs.Len() != 0 || rs.Applied("o") != 0 {
		t.Fatalf("the discarded payload reached the replica: %d records, applied %d", rs.Len(), rs.Applied("o"))
	}
}

// TestSyncBehindRingInstallsNothing: a sync payload stamped one epoch
// behind the active ring — a commit that landed after the replicate handler
// compared the stamp — is refused with a wrong-epoch error and leaves the
// replica unchanged; stamped with the active epoch, the same payload
// installs.
func TestSyncBehindRingInstallsNothing(t *testing.T) {
	n, err := New(Config{Self: "a", Peers: map[string]string{"a": "http://127.0.0.1:1", "o": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	st := n.State()
	st.Epoch++
	if _, err := n.AdoptIfNewer(st); err != nil {
		t.Fatal(err)
	}
	id := ""
	for i := 0; id == ""; i++ {
		if k := fmt.Sprintf("user-%d", i); n.Ring().Owner(k) == "o" {
			id = k
		}
	}
	rs := n.Replica()
	rs.Apply("o", rput(2, id, "old"))
	payload := EncodeSyncPayload(9, []wal.Record{rput(5, id, "new")})

	applied, changed, err := n.ApplyReplicate("o", true, st.Epoch-1, payload)
	if !IsWrongEpoch(err) || changed != 0 || applied != 0 {
		t.Fatalf("sync one epoch behind: applied %d, %d changed, err %v; want a wrong-epoch refusal", applied, changed, err)
	}
	if rec, ok := rs.Get(id); !ok || rec.Version != 2 || rec.Text != "old" || rs.Applied("o") != 2 || rs.Len() != 1 {
		t.Fatalf("the refused payload reached the replica: %+v, applied %d, %d records", rec, rs.Applied("o"), rs.Len())
	}

	if _, changed, err := n.ApplyReplicate("o", true, st.Epoch, payload); err != nil || changed != 1 {
		t.Fatalf("sync at the active epoch: %d changed, err %v; want 1", changed, err)
	}
	if rec, _ := rs.Get(id); rec.Version != 5 || rs.Applied("o") != 9 {
		t.Fatalf("after the install: %+v, applied %d; want v5 and applied 9", rec, rs.Applied("o"))
	}
}
