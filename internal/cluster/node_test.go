package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqp/internal/obs"
	"cqp/internal/wal"
)

// followerServer mounts a real follower Node's replicate/sync/ping
// handlers on an httptest server, with a kill switch for outage tests.
type followerServer struct {
	node *Node
	ts   *httptest.Server
	down atomic.Bool
}

func newFollowerServer(t *testing.T, self string, peers map[string]string) *followerServer {
	t.Helper()
	fs := &followerServer{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+PathPing, func(w http.ResponseWriter, r *http.Request) {
		if fs.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST "+PathReplicate, func(w http.ResponseWriter, r *http.Request) {
		if fs.down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		applied, recs, err := fs.node.ApplyReplicate(
			r.URL.Query().Get("from"), r.URL.Query().Get("sync") == "1", fs.node.Epoch(), body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"applied":%d,"records":%d}`, applied, recs)
	})
	fs.ts = httptest.NewServer(mux)
	t.Cleanup(fs.ts.Close)

	// The follower node only needs a ring and a replica store; resolve its
	// own URL into the shared peer map.
	full := map[string]string{self: fs.ts.URL}
	for id, url := range peers {
		full[id] = url
	}
	node, err := New(Config{Self: self, Peers: full})
	if err != nil {
		t.Fatal(err)
	}
	fs.node = node
	return fs
}

// ownedKeys returns count keys that n owns (so their records replicate to
// the other node of a 2-node ring).
func ownedKeys(n *Node, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		k := fmt.Sprintf("user-%d", i)
		if n.IsOwner(k) {
			out = append(out, k)
		}
	}
	return out
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationStream: records enqueued on the owner arrive at the
// follower's replica in order, and the cumulative ack drains the lag.
func TestReplicationStream(t *testing.T) {
	fs := newFollowerServer(t, "n2", map[string]string{"n1": "http://unused.invalid"})
	sender, err := New(Config{
		Self:      "n1",
		Peers:     map[string]string{"n1": "http://unused.invalid", "n2": fs.ts.URL},
		Replicate: true,
		// Long probe interval: this test exercises the sender, not probing.
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender.Start()
	defer sender.Close()

	keys := ownedKeys(sender, 10)
	for i, k := range keys {
		sender.Replicate(wal.Record{Op: wal.OpPut, ID: k, Text: "doi " + k, Version: uint64(i + 1)})
	}
	// A delete must propagate as a tombstone.
	sender.Replicate(wal.Record{Op: wal.OpDelete, ID: keys[0], Version: uint64(len(keys) + 1)})

	waitFor(t, 5*time.Second, "replica to apply the stream", func() bool {
		return fs.node.Replica().Len() == len(keys)-1 &&
			fs.node.Replica().Applied("n1") == uint64(len(keys)+1)
	})
	if _, ok := fs.node.Replica().Get(keys[0]); ok {
		t.Fatal("deleted profile still live on follower")
	}
	if rec, ok := fs.node.Replica().Get(keys[1]); !ok || rec.Text != "doi "+keys[1] {
		t.Fatalf("follower replica for %s: %+v ok=%v", keys[1], rec, ok)
	}
	waitFor(t, 5*time.Second, "sender lag to drain", func() bool {
		lag, acked := sender.peers["n2"].lag(), sender.peers["n2"].acked.Load()
		return lag == 0 && acked == uint64(len(keys)+1)
	})
}

// TestOverflowFallsBackToFullSync: when the follower is down long enough
// for the queue to overflow, dropped records are NOT lost — reconnecting
// triggers a full sync from SyncSource that restores a complete view.
func TestOverflowFallsBackToFullSync(t *testing.T) {
	fs := newFollowerServer(t, "n2", map[string]string{"n1": "http://unused.invalid"})
	fs.down.Store(true)

	// truth is shared between the test goroutine (writes during the
	// overfill) and the sender goroutine (SyncSource reads during full-sync
	// attempts, which start as soon as the queue overflows).
	var (
		synced  atomic.Int64
		truthMu sync.Mutex
		truth   = map[string]wal.Record{}
	)
	sender, err := New(Config{
		Self:          "n1",
		Peers:         map[string]string{"n1": "http://unused.invalid", "n2": fs.ts.URL},
		Replicate:     true,
		ProbeInterval: time.Hour,
		SyncSource: func(peer string) (uint64, []wal.Record) {
			synced.Add(1)
			truthMu.Lock()
			defer truthMu.Unlock()
			var clock uint64
			recs := make([]wal.Record, 0, len(truth))
			for _, r := range truth {
				recs = append(recs, r)
				if r.Version > clock {
					clock = r.Version
				}
			}
			return clock, recs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sender.Start()
	defer sender.Close()

	// Overfill the 4096-record queue while the follower is down.
	keys := ownedKeys(sender, 50)
	var v uint64
	for round := 0; round < 120; round++ {
		for _, k := range keys {
			v++
			rec := wal.Record{Op: wal.OpPut, ID: k, Text: fmt.Sprintf("v%d", v), Version: v}
			truthMu.Lock()
			truth[k] = rec
			truthMu.Unlock()
			sender.Replicate(rec)
		}
	}
	// Overflow must have degraded the stream to full-sync mode: pushFullSync
	// consults SyncSource before the (failing) POST, so a sync attempt shows
	// up even while the follower is still down.
	waitFor(t, 5*time.Second, "overflow to trigger a full-sync attempt", func() bool {
		return synced.Load() > 0
	})

	fs.down.Store(false)
	truthMu.Lock()
	wantVersion := truth[keys[0]].Version
	truthMu.Unlock()
	waitFor(t, 10*time.Second, "full sync to restore the follower", func() bool {
		if fs.node.Replica().Len() != len(keys) {
			return false
		}
		rec, ok := fs.node.Replica().Get(keys[0])
		return ok && rec.Version == wantVersion
	})
}

// TestCatchUpPullsPeerState: a rejoining node pulls each peer's snapshot;
// an unreachable peer is reported, not waited on forever.
func TestCatchUpPullsPeerState(t *testing.T) {
	recs := []wal.Record{
		{Op: wal.OpPut, ID: "a", Text: "ta", Version: 4},
		{Op: wal.OpPut, ID: "b", Text: "tb", Version: 7},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathSync {
			http.NotFound(w, r)
			return
		}
		w.Write(EncodeSyncPayload(7, recs))
	}))
	defer ts.Close()

	n, err := New(Config{Self: "n1", Peers: map[string]string{"n1": "http://unused.invalid", "n2": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CatchUp(context.Background(), 1); err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if n.replica.Len() != 2 || n.replica.Applied("n2") != 7 {
		t.Fatalf("replica after catch-up: len=%d applied=%d", n.replica.Len(), n.replica.Applied("n2"))
	}

	bad, err := New(Config{Self: "n1", Peers: map[string]string{
		"n1": "http://unused.invalid",
		"n2": "http://127.0.0.1:1", // nothing listens here
	}})
	if err != nil {
		t.Fatal(err)
	}
	err = bad.CatchUp(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "n2") {
		t.Fatalf("catch-up with dead peer: %v", err)
	}
}

// TestProbeFailoverAndRecovery: a peer that stops answering pings is
// marked down within a probe interval or one reported proxy failure, and
// comes back up once it answers again.
func TestProbeFailoverAndRecovery(t *testing.T) {
	fs := newFollowerServer(t, "n2", map[string]string{"n1": "http://unused.invalid"})
	n, err := New(Config{
		Self:          "n1",
		Peers:         map[string]string{"n1": "http://unused.invalid", "n2": fs.ts.URL},
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Close()

	if !n.Up("n2") {
		t.Fatal("healthy peer reported down at start")
	}
	fs.down.Store(true)
	waitFor(t, 2*time.Second, "probe to mark the peer down", func() bool { return !n.Up("n2") })
	fs.down.Store(false)
	waitFor(t, 2*time.Second, "probe to mark the peer up again", func() bool { return n.Up("n2") })

	// A live proxy failure marks the peer down without waiting for a probe;
	// the prober may race and mark it up again since the server is healthy,
	// so nothing is asserted of it here (TestPeerHealthStrikes is, without
	// a prober).
	n.ReportPeerFailure("n2")
	st := n.Status()
	if len(st.Peers) != 1 || st.Peers[0].ID != "n2" {
		t.Fatalf("status peers: %+v", st.Peers)
	}
	// Self is always up; unknown peers are not.
	if !n.Up("n1") || n.Up("nope") {
		t.Fatal("Up(self)/Up(unknown) wrong")
	}
}

// TestPeerHealthStrikes drives a peer's health by reported proxy outcomes
// alone — the node is never started, so no prober races them: PeerStrikes
// consecutive failures mark the peer down, any success marks it up, and
// cluster_peer_up and cluster_breaker_flaps_total move only when it flips.
func TestPeerHealthStrikes(t *testing.T) {
	for _, strikes := range []int{1, 3} {
		t.Run(fmt.Sprintf("strikes=%d", strikes), func(t *testing.T) {
			reg := obs.NewRegistry()
			n, err := New(Config{
				Self:        "n1",
				Peers:       map[string]string{"n1": "http://unused.invalid", "n2": "http://unused.invalid"},
				PeerStrikes: strikes,
				Metrics:     reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			flaps := 0
			step := func(what string, ok, wantUp bool) {
				t.Helper()
				wasUp := n.Up("n2")
				if ok {
					n.ReportPeerSuccess("n2")
				} else {
					n.ReportPeerFailure("n2")
				}
				if wasUp && !wantUp {
					flaps++
				}
				wantGauge := int64(0)
				if wantUp {
					wantGauge = 1
				}
				up, gauge := n.Up("n2"), reg.Gauge("cluster_peer_up", "peer", "n2").Value()
				if up != wantUp || gauge != wantGauge {
					t.Fatalf("%s: Up %v, cluster_peer_up %d, want up %v", what, up, gauge, wantUp)
				}
				if got := reg.Counter("cluster_breaker_flaps_total", "peer", "n2").Value(); got != int64(flaps) {
					t.Fatalf("%s: %d flaps, want %d", what, got, flaps)
				}
			}
			step("start", true, true)
			for round := 0; round < 2; round++ {
				for i := 1; i < strikes; i++ {
					step(fmt.Sprintf("round %d: failure %d", round, i), false, true)
				}
				step(fmt.Sprintf("round %d: strike %d", round, strikes), false, false)
				step(fmt.Sprintf("round %d: a failure while down", round), false, false)
				step(fmt.Sprintf("round %d: a success", round), true, true)
			}
			if strikes > 1 {
				// A success between failures starts the count again.
				step("failure", false, true)
				step("success", true, true)
				for i := 1; i < strikes; i++ {
					step(fmt.Sprintf("failure %d after the reset", i), false, true)
				}
				step("the last strike", false, false)
			}
			if got := reg.Counter("cluster_peer_failures_total", "peer", "n2").Value(); got == 0 {
				t.Error("no proxy failure counted in cluster_peer_failures_total")
			}

			// Outcomes settled from several goroutines at once (the prober
			// and concurrent proxies) leave the gauge where the flag is.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if i%(strikes+1) == g%2 {
							n.ReportPeerSuccess("n2")
						} else {
							n.ReportPeerFailure("n2")
						}
						n.Up("n2")
					}
				}()
			}
			wg.Wait()
			if up, gauge := n.Up("n2"), reg.Gauge("cluster_peer_up", "peer", "n2").Value(); up != (gauge == 1) {
				t.Fatalf("after concurrent outcomes: Up %v, cluster_peer_up %d", up, gauge)
			}
			flaps = int(reg.Counter("cluster_breaker_flaps_total", "peer", "n2").Value())
			step("a success after the concurrent outcomes", true, true)
		})
	}
}
