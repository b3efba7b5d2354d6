package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqp"
	"cqp/internal/obs"
	"cqp/internal/wal"
)

// testCluster runs a real multi-node cqpd cluster in-process: one Server
// per node, each on its own loopback listener, wired through the same
// static peer list.
type testCluster struct {
	t       *testing.T
	ids     []string
	addrs   map[string]string // id → host:port (stable across restarts)
	peers   map[string]string // id → base URL
	servers map[string]*Server
	dirs    map[string]string // id → data dir ("" = memory store)
	durable bool
	tweak   func(*Config) // per-test Config overrides, applied at start
}

func newTestCluster(t *testing.T, ids []string, durable bool) *testCluster {
	return newTestClusterCfg(t, ids, durable, nil)
}

func newTestClusterCfg(t *testing.T, ids []string, durable bool, tweak func(*Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t:       t,
		ids:     ids,
		addrs:   make(map[string]string),
		peers:   make(map[string]string),
		servers: make(map[string]*Server),
		dirs:    make(map[string]string),
		durable: durable,
		tweak:   tweak,
	}
	lns := make(map[string]net.Listener)
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id] = ln
		tc.addrs[id] = ln.Addr().String()
		tc.peers[id] = "http://" + ln.Addr().String()
		if durable {
			tc.dirs[id] = t.TempDir()
		}
	}
	for _, id := range ids {
		tc.start(id, lns[id], nil)
	}
	t.Cleanup(func() {
		running := make([]string, 0, len(tc.servers))
		for id := range tc.servers {
			running = append(running, id)
		}
		for _, id := range running {
			tc.stop(id)
		}
	})
	tc.waitReady(ids...)
	return tc
}

// start builds one node's Server and begins serving on ln. A nil peers
// map means the full static peer list; a joiner passes its solo view.
func (tc *testCluster) start(id string, ln net.Listener, peers map[string]string) {
	tc.t.Helper()
	if peers == nil {
		peers = tc.peers
	}
	view := make(map[string]string, len(peers))
	for pid, url := range peers {
		view[pid] = url
	}
	db := cqp.SyntheticMovieDB(300, 1)
	cfg := Config{
		NodeID:        id,
		ClusterPeers:  view,
		Replicate:     true,
		ProbeInterval: 25 * time.Millisecond,
		DataDir:       tc.dirs[id],
	}
	if tc.tweak != nil {
		tc.tweak(&cfg)
	}
	s, err := New(db, cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.servers[id] = s
	go s.Serve(ln)
}

// spawn boots a brand-new node as a 1-member cluster of itself — the
// documented joiner bootstrap — and waits for its /healthz. It becomes
// part of the ring only after a /cluster/join on an existing member.
func (tc *testCluster) spawn(id string) {
	tc.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	tc.addrs[id] = ln.Addr().String()
	tc.peers[id] = "http://" + ln.Addr().String()
	tc.ids = append(tc.ids, id)
	if tc.durable {
		tc.dirs[id] = tc.t.TempDir()
	}
	tc.start(id, ln, map[string]string{id: tc.peers[id]})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(tc.peers[id] + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			tc.t.Fatalf("spawned node %s never became ready", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop shuts one node down (its listener closes with the http server).
func (tc *testCluster) stop(id string) {
	s := tc.servers[id]
	if s == nil {
		return
	}
	delete(tc.servers, id)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// restart rebinds the node's original address and starts a fresh Server
// over the same data dir — the rejoin path.
func (tc *testCluster) restart(id string) {
	tc.t.Helper()
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", tc.addrs[id])
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tc.t.Fatalf("rebind %s: %v", tc.addrs[id], err)
	}
	tc.start(id, ln, nil)
	tc.waitReady(id)
}

func (tc *testCluster) url(id string) string { return tc.peers[id] }

func (tc *testCluster) node(id string) *Server { return tc.servers[id] }

// waitReady blocks until each named node's /healthz answers 200 and its
// view of every *running* peer has settled to up. The second wait
// matters: a probe that landed during a peer's pre-ready window marked
// it down (one strike), and traffic driven before the next probe marks
// it up would take the failover path spuriously.
func (tc *testCluster) waitReady(ids ...string) {
	tc.t.Helper()
	for _, id := range ids {
		ok := false
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(tc.url(id) + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ok = true
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
		if !ok {
			tc.t.Fatalf("node %s never became ready", id)
		}
		c := tc.node(id).Cluster()
		for {
			allUp := true
			for peer := range tc.servers {
				if peer != id && !c.Up(peer) {
					allUp = false
				}
			}
			if allUp {
				break
			}
			if time.Now().After(deadline) {
				tc.t.Fatalf("node %s never saw its peers up: %+v", id, c.Status())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// anyNode returns a running node (ring state is identical on all).
func (tc *testCluster) anyNode() *Server {
	for _, s := range tc.servers {
		return s
	}
	tc.t.Fatal("no running nodes")
	return nil
}

// keyOwnedBy finds a profile ID owned by node owner.
func (tc *testCluster) keyOwnedBy(owner string) string {
	c := tc.anyNode().Cluster()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("user-%d", i)
		if c.Owner(k) == owner {
			return k
		}
	}
	tc.t.Fatalf("no key owned by %s", owner)
	return ""
}

// otherThan returns a node ID distinct from every argument.
func (tc *testCluster) otherThan(exclude ...string) string {
	for _, id := range tc.ids {
		skip := false
		for _, e := range exclude {
			if id == e {
				skip = true
			}
		}
		if !skip {
			return id
		}
	}
	tc.t.Fatal("no node left")
	return ""
}

// TestClusterRoutingProxiesToOwner: any node accepts a profile mutation;
// it lands on (only) the owner's store and every node reads it back.
func TestClusterRoutingProxiesToOwner(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, false)
	c := tc.anyNode().Cluster()
	owner := c.Owner("alice")
	entry := tc.otherThan(owner)
	text := testProfileText()

	putProfile(t, tc.url(entry), "alice", text)
	if _, ok := tc.node(owner).store.Get("alice"); !ok {
		t.Fatalf("owner %s does not hold the routed profile", owner)
	}
	if _, ok := tc.node(entry).store.Get("alice"); ok {
		t.Fatalf("entry node %s kept a local copy instead of proxying", entry)
	}
	for _, id := range tc.ids {
		resp, body := doJSON(t, http.MethodGet, tc.url(id)+"/profiles/alice", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET via %s: %d: %s", id, resp.StatusCode, body)
		}
		var pj profileJSON
		if err := json.Unmarshal(body, &pj); err != nil {
			t.Fatal(err)
		}
		if pj.Text != text || pj.StaleReplica {
			t.Fatalf("GET via %s: text mismatch or stale marker: %+v", id, pj)
		}
	}

	// A pipeline request entering at a non-owner is proxied too, and the
	// entry node charges the hop to the proxy phase.
	resp, body := doJSON(t, http.MethodPost, tc.url(entry)+"/personalize", map[string]any{
		"sql": testSQL, "profile_id": "alice",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied personalize: %d: %s", resp.StatusCode, body)
	}
	waitObs(t, "entry node's flight record", func() bool {
		_, _, ok := tc.node(entry).flight.Get(resp.Header.Get("X-Request-ID"))
		return ok
	})
	if snap, _, _ := tc.node(entry).flight.Get(resp.Header.Get("X-Request-ID")); snap.PhasesUS[obs.PhaseProxy] <= 0 {
		t.Errorf("proxied request's phases_us = %v, want proxy > 0", snap.PhasesUS)
	}
	var pr personalizeResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Degraded != "" || pr.ProfileVersion == 0 {
		t.Fatalf("proxied personalize degraded=%q version=%d", pr.Degraded, pr.ProfileVersion)
	}

	// The route endpoint agrees with the ring.
	resp, body = doJSON(t, http.MethodGet, tc.url(entry)+"/cluster/route/alice", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route: %d: %s", resp.StatusCode, body)
	}
	var route struct{ Owner, Follower string }
	if err := json.Unmarshal(body, &route); err != nil {
		t.Fatal(err)
	}
	if route.Owner != owner || route.Follower != c.Follower("alice") {
		t.Fatalf("route: %+v, ring says %s/%s", route, owner, c.Follower("alice"))
	}

	// Deletes route the same way.
	resp, _ = doJSON(t, http.MethodDelete, tc.url(entry)+"/profiles/alice", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("proxied delete: %d", resp.StatusCode)
	}
	if _, ok := tc.node(owner).store.Get("alice"); ok {
		t.Fatal("delete did not reach the owner")
	}
}

// TestClusterProxyForwardsRequestID: a proxied request keeps one id across
// the hop — the entry node's response and the owner's flight record carry
// the same one, whether the client supplied it or the entry node minted it.
func TestClusterProxyForwardsRequestID(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2"}, false)
	key := tc.keyOwnedBy("n1")
	putProfile(t, tc.url("n1"), key, testProfileText())
	body, err := json.Marshal(map[string]any{"sql": testSQL, "profile_id": key})
	if err != nil {
		t.Fatal(err)
	}
	for _, sent := range []string{"hop-client-1", ""} {
		req, err := http.NewRequest(http.MethodPost, tc.url("n2")+"/personalize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set("X-Request-ID", sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if resp.StatusCode != http.StatusOK || id == "" || (sent != "" && id != sent) {
			t.Fatalf("sent id %q: status %d, response id %q", sent, resp.StatusCode, id)
		}
		// A flight record is filed after the response is written: wait for both.
		for _, n := range []string{"n2", "n1"} {
			deadline := time.Now().Add(5 * time.Second)
			for {
				snap, _, ok := tc.node(n).flight.Get(id)
				if ok && snap.Endpoint == "personalize" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("sent id %q: node %s has no personalize flight record under %q", sent, n, id)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// TestClusterFailoverServesReplica: killing a profile's owner leaves
// reads serving from the follower's replica (marked stale_replica) while
// mutations answer 503 — and the very first post-kill request succeeds,
// because a failed proxy marks the peer down immediately.
func TestClusterFailoverServesReplica(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, false)
	c := tc.anyNode().Cluster()
	key := tc.keyOwnedBy("n1")
	follower := c.Follower(key)
	third := tc.otherThan("n1", follower)
	text := testProfileText()

	putProfile(t, tc.url("n1"), key, text)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := tc.node(follower).Cluster().Replica().Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("profile %s never replicated to follower %s", key, follower)
		}
		time.Sleep(10 * time.Millisecond)
	}

	tc.stop("n1")

	// Read via the third node: proxy to dead owner fails → fail over to
	// the follower's replica.
	resp, body := doJSON(t, http.MethodGet, tc.url(third)+"/profiles/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover GET via %s: %d: %s", third, resp.StatusCode, body)
	}
	var pj profileJSON
	if err := json.Unmarshal(body, &pj); err != nil {
		t.Fatal(err)
	}
	if !pj.StaleReplica || pj.Text != text {
		t.Fatalf("failover GET: want stale replica with original text, got %+v", pj)
	}

	// Read via the follower itself: served from its own replica.
	resp, body = doJSON(t, http.MethodGet, tc.url(follower)+"/profiles/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover GET via follower: %d: %s", resp.StatusCode, body)
	}

	// Pipeline requests degrade to the replica and say so in the envelope.
	resp, body = doJSON(t, http.MethodPost, tc.url(follower)+"/personalize", map[string]any{
		"sql": testSQL, "profile_id": key,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover personalize: %d: %s", resp.StatusCode, body)
	}
	var pr personalizeResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Degraded != degradedStaleReplica {
		t.Fatalf("failover personalize degraded=%q, want %q", pr.Degraded, degradedStaleReplica)
	}

	// Mutations do not fail over.
	req, err := http.NewRequest(http.MethodPut, tc.url(third)+"/profiles/"+key, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation with dead owner: %d, want 503", wresp.StatusCode)
	}
}

// TestClusterRejoinCatchUp: a durably-stored owner that dies and rejoins
// replays its WAL, catch-up syncs the shards it follows, and only then
// advertises ready — with a /profiles listing identical to pre-kill (zero
// acked mutations lost).
func TestClusterRejoinCatchUp(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, true)

	// Spread acked profiles across all three owners, entering via n2.
	for i := 0; i < 12; i++ {
		putProfile(t, tc.url("n2"), fmt.Sprintf("user-%d", i), testProfileText())
	}
	_, beforeList := doJSON(t, http.MethodGet, tc.url("n1")+"/profiles", nil)

	// Wait until every follower replica caught up, so the rejoin pull has
	// a complete source.
	c := tc.anyNode().Cluster()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("user-%d", i)
		f := c.Follower(id)
		for {
			if _, ok := tc.node(f).Cluster().Replica().Get(id); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("profile %s never reached follower %s", id, f)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	tc.stop("n1")
	tc.restart("n1")

	_, afterList := doJSON(t, http.MethodGet, tc.url("n1")+"/profiles", nil)
	var beforeP, afterP struct {
		Profiles []ProfileInfo `json:"profiles"`
	}
	if err := json.Unmarshal(beforeList, &beforeP); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(afterList, &afterP); err != nil {
		t.Fatal(err)
	}
	if len(afterP.Profiles) != len(beforeP.Profiles) {
		t.Fatalf("rejoined listing has %d profiles, had %d", len(afterP.Profiles), len(beforeP.Profiles))
	}
	for i := range beforeP.Profiles {
		b, a := beforeP.Profiles[i], afterP.Profiles[i]
		if a.ID != b.ID || a.Version != b.Version {
			t.Fatalf("rejoined listing diverged at %d: %+v vs %+v", i, a, b)
		}
	}

	// The rejoined node's replica was rebuilt by catch-up: every profile
	// it follows is present again.
	rejoined := tc.node("n1").Cluster()
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("user-%d", i)
		if rejoined.Follower(id) != "n1" {
			continue
		}
		if _, ok := rejoined.Replica().Get(id); !ok {
			t.Fatalf("rejoined node missing replica of %s after catch-up", id)
		}
	}

	// Healthz reports the cluster block.
	_, hb := doJSON(t, http.MethodGet, tc.url("n1")+"/healthz", nil)
	var hz struct {
		Role    string `json:"role"`
		Backend string `json:"backend"`
		Cluster *struct {
			NodeID string `json:"node_id"`
			Peers  []struct {
				ID string `json:"id"`
				Up bool   `json:"up"`
			} `json:"peers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal(hb, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "member" || hz.Cluster == nil || hz.Cluster.NodeID != "n1" || len(hz.Cluster.Peers) != 2 {
		t.Fatalf("healthz cluster block: %s", hb)
	}
}

// loadStats is the scoreboard for a background mixed PUT/GET loop.
type loadStats struct {
	ops     atomic.Int64
	fails   atomic.Int64
	lastErr atomic.Value // string
}

// runLoad drives a mixed PUT/GET loop against the given entry nodes
// until stop is closed. Every PUT of load-* keys and every GET of a
// previously acked key must succeed — membership changes are supposed
// to be invisible to clients.
func (tc *testCluster) runLoad(stop chan struct{}, entries []string) (*loadStats, *sync.WaitGroup) {
	st := &loadStats{}
	var wg sync.WaitGroup
	text := testProfileText()
	cli := &http.Client{Timeout: 3 * time.Second}
	urls := make([]string, len(entries))
	for i, id := range entries {
		urls[i] = tc.peers[id]
	}
	fail := func(what string, detail string) {
		st.fails.Add(1)
		st.lastErr.Store(what + ": " + detail)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			entry := urls[i%len(urls)]
			id := fmt.Sprintf("load-%d", i%25)
			req, err := http.NewRequest(http.MethodPut, entry+"/profiles/"+id, strings.NewReader(text))
			if err != nil {
				fail("build PUT", err.Error())
				continue
			}
			if resp, err := cli.Do(req); err != nil {
				fail("PUT "+id, err.Error())
			} else {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					fail("PUT "+id, fmt.Sprintf("%d: %s", resp.StatusCode, body))
				}
			}
			if i > 0 {
				gid := fmt.Sprintf("load-%d", (i-1)%25)
				if resp, err := cli.Get(entry + "/profiles/" + gid); err != nil {
					fail("GET "+gid, err.Error())
				} else {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fail("GET "+gid, fmt.Sprintf("%d: %s", resp.StatusCode, body))
					}
				}
			}
			st.ops.Add(2)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return st, &wg
}

// checkLoad stops the loop and fails the test on any failed request.
func checkLoad(t *testing.T, st *loadStats, stop chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	close(stop)
	wg.Wait()
	if n := st.fails.Load(); n != 0 {
		t.Fatalf("%d of %d load requests failed during membership changes; last: %v",
			n, st.ops.Load(), st.lastErr.Load())
	}
	if st.ops.Load() == 0 {
		t.Fatal("load loop made no requests")
	}
}

// waitEpoch blocks until every named node reports the epoch and is out
// of any ring transition.
func (tc *testCluster) waitEpoch(epoch uint64, ids ...string) {
	tc.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for _, id := range ids {
		for {
			stat := tc.node(id).Cluster().Status()
			if stat.Epoch == epoch && !stat.Transitioning {
				break
			}
			if time.Now().After(deadline) {
				tc.t.Fatalf("node %s stuck at epoch %d (want %d): %+v", id, stat.Epoch, epoch, stat)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestClusterJoinLeaveUnderLoad is the membership tentpole end to end:
// a fourth node boots as a cluster of itself, joins via POST
// /cluster/join while a mixed PUT/GET load runs against the original
// members, takes over ≈1/4 of the shards with records streamed across
// and evicted from the old owners, every node agrees on the new routing
// — then leaves again, restoring the exact pre-join assignment. The
// load loop must see zero failed requests through both transitions.
func TestClusterJoinLeaveUnderLoad(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, false)
	text := testProfileText()

	// Seed acked profiles across the 3-node ring.
	const seeded = 40
	for i := 0; i < seeded; i++ {
		putProfile(t, tc.url("n2"), fmt.Sprintf("user-%d", i), text)
	}
	before := make(map[string]string, seeded)
	c := tc.anyNode().Cluster()
	for i := 0; i < seeded; i++ {
		id := fmt.Sprintf("user-%d", i)
		before[id] = c.Owner(id)
	}

	stop := make(chan struct{})
	st, wg := tc.runLoad(stop, []string{"n1", "n2", "n3"})
	time.Sleep(50 * time.Millisecond) // load in flight before the join

	// Join: boot n4 solo, then ask n1 to admit it.
	tc.spawn("n4")
	resp, body := doJSON(t, http.MethodPost, tc.url("n1")+"/cluster/join",
		map[string]any{"id": "n4", "url": tc.peers["n4"]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d: %s", resp.StatusCode, body)
	}
	tc.waitEpoch(1, "n1", "n2", "n3", "n4")

	// Every node routes every key identically at the new epoch.
	moved := []string{}
	for i := 0; i < seeded; i++ {
		id := fmt.Sprintf("user-%d", i)
		var owners []string
		for _, nid := range []string{"n1", "n2", "n3", "n4"} {
			resp, body := doJSON(t, http.MethodGet, tc.url(nid)+"/cluster/route/"+id, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("route %s via %s: %d: %s", id, nid, resp.StatusCode, body)
			}
			var r struct {
				Owner string `json:"owner"`
				Epoch uint64 `json:"epoch"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				t.Fatal(err)
			}
			if r.Epoch != 1 {
				t.Fatalf("route %s via %s: epoch %d, want 1", id, nid, r.Epoch)
			}
			owners = append(owners, r.Owner)
		}
		for _, o := range owners[1:] {
			if o != owners[0] {
				t.Fatalf("route %s: nodes disagree: %v", id, owners)
			}
		}
		if owners[0] == "n4" {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		t.Fatal("join moved no seeded shards to n4")
	}

	// Moved records were handed off to n4 and evicted from old owners.
	for _, id := range moved {
		if _, ok := tc.node("n4").store.Get(id); !ok {
			t.Fatalf("moved profile %s missing on joiner", id)
		}
		if _, ok := tc.node(before[id]).store.Get(id); ok {
			t.Fatalf("moved profile %s still on old owner %s", id, before[id])
		}
		resp, body := doJSON(t, http.MethodGet, tc.url("n2")+"/profiles/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET moved %s: %d: %s", id, resp.StatusCode, body)
		}
		var pj profileJSON
		if err := json.Unmarshal(body, &pj); err != nil {
			t.Fatal(err)
		}
		if pj.Text != text || pj.StaleReplica {
			t.Fatalf("GET moved %s: wrong text or stale marker: %+v", id, pj)
		}
	}

	// Leave: drain n4 back out, again under load.
	resp, body = doJSON(t, http.MethodPost, tc.url("n1")+"/cluster/leave",
		map[string]any{"id": "n4"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d: %s", resp.StatusCode, body)
	}
	tc.waitEpoch(2, "n1", "n2", "n3")
	checkLoad(t, st, stop, wg)

	if !tc.node("n4").Cluster().Detached() {
		t.Fatal("left node still considers itself a member")
	}
	// Exact prior assignment restored, records back on the old owners.
	c = tc.node("n1").Cluster()
	for i := 0; i < seeded; i++ {
		id := fmt.Sprintf("user-%d", i)
		if got := c.Owner(id); got != before[id] {
			t.Fatalf("after leave, %s owned by %s, was %s", id, got, before[id])
		}
	}
	for _, id := range moved {
		if _, ok := tc.node(before[id]).store.Get(id); !ok {
			t.Fatalf("profile %s did not return to %s after leave", id, before[id])
		}
	}
}

// TestClusterAntiEntropyRepair: a follower replica that silently
// diverges — one record corrupted in place at the same version, one
// dropped outright — converges back to the owner's truth through the
// background digest-diff loop, with no restart and no new mutations.
func TestClusterAntiEntropyRepair(t *testing.T) {
	tc := newTestClusterCfg(t, []string{"n1", "n2", "n3"}, false, func(c *Config) {
		c.AntiEntropy = 50 * time.Millisecond
	})
	text := testProfileText()
	c := tc.anyNode().Cluster()

	// Two keys with a known owner, replicated to their follower.
	k1 := tc.keyOwnedBy("n1")
	var k2 string
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("other-%d", i)
		if c.Owner(k) == "n1" && k != k1 {
			k2 = k
			break
		}
	}
	if k2 == "" {
		t.Fatal("no second key owned by n1")
	}
	putProfile(t, tc.url("n2"), k1, text)
	putProfile(t, tc.url("n2"), k2, text)
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range []string{k1, k2} {
		f := c.Follower(k)
		for {
			if _, ok := tc.node(f).Cluster().Replica().Get(k); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("profile %s never replicated to follower %s", k, f)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Corrupt k1 in place (same version, different bytes) and drop k2.
	f1, f2 := c.Follower(k1), c.Follower(k2)
	if !tc.node(f1).Cluster().Replica().TamperForTest(k1, func(r *wal.Record) {
		r.Text = "CORRUPTED " + r.Text
	}) {
		t.Fatalf("tamper: %s not in %s replica", k1, f1)
	}
	if !tc.node(f2).Cluster().Replica().DropForTest(k2) {
		t.Fatalf("drop: %s not in %s replica", k2, f2)
	}

	// Anti-entropy repairs both without any new writes.
	deadline = time.Now().Add(10 * time.Second)
	for {
		r1, ok1 := tc.node(f1).Cluster().Replica().Get(k1)
		_, ok2 := tc.node(f2).Cluster().Replica().Get(k2)
		if ok1 && r1.Text == text && ok2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: k1 ok=%v text-restored=%v, k2 ok=%v",
				ok1, ok1 && r1.Text == text, ok2)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterReplicasThreeSurvivesTwoDeaths: with -replicas 3 a
// profile has an owner and two followers; killing the owner AND the
// first follower still leaves reads served (stale_replica) from the
// second follower via any surviving node.
func TestClusterReplicasThreeSurvivesTwoDeaths(t *testing.T) {
	tc := newTestClusterCfg(t, []string{"n1", "n2", "n3", "n4"}, false, func(c *Config) {
		c.Replicas = 3
	})
	c := tc.anyNode().Cluster()
	key := tc.keyOwnedBy("n1")
	fs := c.Followers(key)
	if len(fs) != 2 {
		t.Fatalf("R=3 followers of %s: %v", key, fs)
	}
	text := testProfileText()
	putProfile(t, tc.url("n1"), key, text)

	deadline := time.Now().Add(5 * time.Second)
	for _, f := range fs {
		for {
			if _, ok := tc.node(f).Cluster().Replica().Get(key); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("profile %s never replicated to follower %s", key, f)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	tc.stop("n1")
	tc.stop(fs[0])
	survivor := tc.otherThan("n1", fs[0], fs[1])

	// Entering at a node that holds nothing: proxy to dead owner fails,
	// failover walks the successor list past the dead first follower.
	resp, body := doJSON(t, http.MethodGet, tc.url(survivor)+"/profiles/"+key, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("R=3 failover GET via %s: %d: %s", survivor, resp.StatusCode, body)
	}
	var pj profileJSON
	if err := json.Unmarshal(body, &pj); err != nil {
		t.Fatal(err)
	}
	if !pj.StaleReplica || pj.Text != text {
		t.Fatalf("R=3 failover GET: %+v", pj)
	}
}
