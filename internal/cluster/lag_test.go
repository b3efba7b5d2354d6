package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cqp/internal/obs"
	"cqp/internal/wal"
)

// TestReplicationLagAfterFullSync: a batch the sender holds for retry when a
// full-sync token supersedes it leaves the lag with it — after the full sync
// lands, Status and cluster_replication_lag_records read 0.
func TestReplicationLagAfterFullSync(t *testing.T) {
	fs := newFollowerServer(t, "n2", map[string]string{"n1": "http://unused.invalid"})
	fs.down.Store(true)
	reg := obs.NewRegistry()
	var synced atomic.Int64
	sender, err := New(Config{
		Self:          "n1",
		Peers:         map[string]string{"n1": "http://unused.invalid", "n2": fs.ts.URL},
		Replicate:     true,
		ProbeInterval: time.Hour,
		Metrics:       reg,
		SyncSource: func(peer string) (uint64, []wal.Record) {
			synced.Add(1)
			return 0, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sender.Start()
	defer sender.Close()

	for i, k := range ownedKeys(sender, 10) {
		sender.Replicate(wal.Record{Op: wal.OpPut, ID: k, Text: fmt.Sprintf("v%d", i), Version: uint64(i + 1)})
	}
	waitFor(t, 5*time.Second, "a failed replicate POST", func() bool {
		return reg.Counter("cluster_replication_errors_total", "peer", "n2").Value() > 0
	})
	// The sender holds the failed batch; the token makes it drop the batch
	// (and the queue) for a full sync, which fails while the follower is down.
	sender.markNeedSync(sender.peers["n2"])
	waitFor(t, 5*time.Second, "a full-sync attempt", func() bool { return synced.Load() > 0 })

	fs.down.Store(false)
	waitFor(t, 10*time.Second, "the full sync to land", func() bool {
		return reg.Counter("cluster_full_syncs_total", "peer", "n2").Value() > 0
	})
	st := sender.Status()
	if len(st.Peers) != 1 || st.Peers[0].LagRecords != 0 {
		t.Fatalf("lag after the full sync: %+v", st.Peers)
	}
	if lag := reg.Gauge("cluster_replication_lag_records", "peer", "n2").Value(); lag != 0 {
		t.Fatalf("cluster_replication_lag_records = %d after the full sync", lag)
	}
}
