package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"cqp/internal/cluster"
	"cqp/internal/wal"
)

// forward sends what a peer's proxy hop sends: the forwarded header naming
// the sender, the ring epoch it routed under and, for a failover read, the
// replica marker.
func forward(t *testing.T, method, url string, epoch uint64, replica bool, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerForwarded, "elsewhere")
	req.Header.Set(cluster.HeaderEpoch, strconv.FormatUint(epoch, 10))
	if replica {
		req.Header.Set(headerReplica, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// errorClass decodes an error envelope's class ("" for any other body).
func errorClass(data []byte) string {
	var er errorResponse
	_ = json.Unmarshal(data, &er)
	return er.Error.Class
}

// TestClusterRouteDecision drives the receiving side of a hop with
// hand-made forwarded requests after the ring moved one epoch on. A sender
// on the older ring that misrouted is refused with 409 wrong_epoch; one
// that still picked the right door — the owner, or a follower for a replica
// read — is served; a sender ahead of the receiver is served where it sent
// the request.
func TestClusterRouteDecision(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2"}, false)
	key := tc.keyOwnedBy("n1")
	putProfile(t, tc.url("n1"), key, testProfileText())
	replicated := func() bool {
		_, ok := tc.node("n2").Cluster().Replica().Get(key)
		return ok
	}
	waitObs(t, "the profile's replica on n2", replicated)

	// Age every sender: the same members under the next epoch on both nodes.
	st := tc.node("n1").Cluster().State()
	old := st.Epoch
	st.Epoch++
	for _, id := range tc.ids {
		if _, err := tc.node(id).Cluster().AdoptIfNewer(st); err != nil {
			t.Fatal(err)
		}
	}
	tc.waitEpoch(st.Epoch, tc.ids...)
	waitObs(t, "the profile's replica on n2 after the resync", replicated)
	if tc.node("n1").Cluster().Owner(key) != "n1" {
		t.Fatalf("the new epoch moved %s off n1", key)
	}

	body, err := json.Marshal(map[string]any{"sql": testSQL, "profile_id": key})
	if err != nil {
		t.Fatal(err)
	}
	pipeline := func(t *testing.T, node string, epoch uint64, replica bool, wantDegraded string) {
		t.Helper()
		resp, data := forward(t, http.MethodPost, tc.url(node)+"/personalize", epoch, replica, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", node, resp.StatusCode, data)
		}
		var pr personalizeResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Degraded != wantDegraded {
			t.Fatalf("%s: degraded %q, want %q", node, pr.Degraded, wantDegraded)
		}
	}

	t.Run("older sender misrouted", func(t *testing.T) {
		counter := tc.node("n2").reg.Counter("cluster_wrong_epoch_total", "path", "proxy")
		before := counter.Value()
		resp, data := forward(t, http.MethodPost, tc.url("n2")+"/personalize", old, false, body)
		if resp.StatusCode != http.StatusConflict || errorClass(data) != "wrong_epoch" {
			t.Fatalf("status %d: %s, want 409 wrong_epoch", resp.StatusCode, data)
		}
		if got := resp.Header.Get(cluster.HeaderEpoch); got != strconv.FormatUint(st.Epoch, 10) {
			t.Fatalf("%s = %q, want %d", cluster.HeaderEpoch, got, st.Epoch)
		}
		if got := counter.Value(); got != before+1 {
			t.Fatalf("cluster_wrong_epoch_total{path=proxy} %d → %d, want one more", before, got)
		}
	})

	t.Run("older sender reached the owner", func(t *testing.T) {
		pipeline(t, "n1", old, false, "")
	})

	t.Run("older sender's replica read at the follower", func(t *testing.T) {
		pipeline(t, "n2", old, true, degradedStaleReplica)
		resp, data := forward(t, http.MethodGet, tc.url("n2")+"/profiles/"+key, old, true, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: %d: %s", resp.StatusCode, data)
		}
		var pj profileJSON
		if err := json.Unmarshal(data, &pj); err != nil {
			t.Fatal(err)
		}
		if !pj.StaleReplica || pj.ID != key {
			t.Fatalf("GET: %+v, want the replica's %s marked stale_replica", pj, key)
		}
	})

	t.Run("sender ahead", func(t *testing.T) {
		pipeline(t, "n1", st.Epoch+1, false, "")
		// At a node that is not the owner under its own ring the request is
		// still served there, not refused or forwarded again: n2's store does
		// not hold the profile, so the answer is its own 404.
		resp, data := forward(t, http.MethodPost, tc.url("n2")+"/personalize", st.Epoch+1, false, body)
		if resp.StatusCode != http.StatusNotFound || errorClass(data) != "not_found" {
			t.Fatalf("n2: %d: %s, want its own 404 not_found", resp.StatusCode, data)
		}
		if resp.Header.Get(cluster.HeaderEpoch) != "" {
			t.Fatalf("n2 answered a sender ahead with %s", cluster.HeaderEpoch)
		}
	})
}

// withoutEnvelope decodes a pipeline answer and drops the per-request
// envelope fields, at the top level and in each batch result.
func withoutEnvelope(t *testing.T, data []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("%v: %s", err, data)
	}
	strip := func(m map[string]any) {
		for _, k := range []string{"cached", "degraded", "trace", "request_id", "attribution_us"} {
			delete(m, k)
		}
	}
	strip(m)
	if results, ok := m["results"].([]any); ok {
		for _, r := range results {
			strip(r.(map[string]any))
		}
	}
	return m
}

// TestClusterProxiesEveryPipelineEndpoint: each pipeline endpoint entered
// at a non-owner is proxied to the owner and answers what the owner answers
// when asked directly, apart from the envelope.
func TestClusterProxiesEveryPipelineEndpoint(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2"}, false)
	key := tc.keyOwnedBy("n1")
	putProfile(t, tc.url("n1"), key, testProfileText())
	item := func(extra ...any) map[string]any {
		m := map[string]any{"sql": testSQL, "profile_id": key}
		for i := 0; i < len(extra); i += 2 {
			m[extra[i].(string)] = extra[i+1]
		}
		return m
	}
	p2 := map[string]any{"number": 2, "cmax_ms": 10000}
	cases := []struct {
		path string
		body map[string]any
	}{
		{"/personalize", item("problem", p2)},
		{"/execute", item("problem", p2, "limit", 5)},
		{"/front", item("cmax_ms", 10000, "max_points", 4)},
		{"/topk", item("cmax_ms", 10000, "k", 5)},
		{"/personalize/batch", map[string]any{
			"items":   []any{item("problem", p2), item("problem", map[string]any{"number": 2, "cmax_ms": 5000})},
			"execute": true,
			"limit":   3,
		}},
	}
	proxied := tc.node("n2").reg.Counter("cluster_proxied_requests_total", "peer", "n1")
	for _, tcase := range cases {
		t.Run(tcase.path, func(t *testing.T) {
			post := func(node string) []byte {
				t.Helper()
				resp, data := doJSON(t, http.MethodPost, tc.url(node)+tcase.path, tcase.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("via %s: %d: %s", node, resp.StatusCode, data)
				}
				return data
			}
			post("n1") // the owner's result cache now holds the answer
			direct := post("n1")
			before := proxied.Value()
			entered := post("n2")
			if got := proxied.Value(); got != before+1 {
				t.Fatalf("n2 proxied %d requests to n1, want 1", got-before)
			}
			if a, b := withoutEnvelope(t, direct), withoutEnvelope(t, entered); !reflect.DeepEqual(a, b) {
				t.Fatalf("answers differ\nowner: %s\nentry: %s", direct, entered)
			}
		})
	}
}

// commitOnRead is a request body that runs commit at its first Read: a ring
// commit that lands while the handler reads the body.
type commitOnRead struct {
	r      io.Reader
	commit func()
}

func (b *commitOnRead) Read(p []byte) (int, error) {
	if b.commit != nil {
		b.commit()
		b.commit = nil
	}
	return b.r.Read(p)
}

// TestReplicateEpochAfterBody: a sync push stamped with the follower's epoch,
// during whose body the follower adopts the next ring, is refused with 409
// wrong_epoch and installs nothing. The snapshot would drop the profile the
// follower holds for its owner and add one it never had; the follower's
// replica must be as before. The stamp is compared once the body is read.
func TestReplicateEpochAfterBody(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2"}, false)
	key := tc.keyOwnedBy("n1")
	putProfile(t, tc.url("n1"), key, testProfileText())
	follower := tc.node("n2").Cluster()
	replica := follower.Replica()
	waitObs(t, "the profile's replica on n2", func() bool {
		_, ok := replica.Get(key)
		return ok
	})
	held, _ := replica.Get(key)
	ghost := ""
	for i := 0; ghost == ""; i++ {
		if id := fmt.Sprintf("ghost-%d", i); follower.Owner(id) == "n1" {
			ghost = id
		}
	}

	st := follower.State()
	stamped := st.Epoch
	st.Epoch++
	body := &commitOnRead{
		r: bytes.NewReader(cluster.EncodeSyncPayload(held.Version, []wal.Record{
			{Op: wal.OpPut, ID: ghost, Text: testProfileText(), Version: 1, UpdatedAt: 1},
		})),
		commit: func() {
			if ok, err := follower.AdoptIfNewer(st); !ok || err != nil {
				t.Errorf("adopting epoch %d: %v, %v", st.Epoch, ok, err)
			}
		},
	}
	url := cluster.PathReplicate + "?from=n1&sync=1&epoch=" + strconv.FormatUint(stamped, 10)
	rec := httptest.NewRecorder()
	tc.node("n2").Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, body))
	if body.commit != nil {
		t.Fatal("the handler answered without reading the body")
	}
	if rec.Code != http.StatusConflict || errorClass(rec.Body.Bytes()) != "wrong_epoch" {
		t.Fatalf("status %d: %s, want 409 wrong_epoch", rec.Code, rec.Body)
	}
	if got, ok := replica.Get(key); !ok || got != held {
		t.Errorf("the replica of %s is %+v (present %v), want %+v as before", key, got, ok, held)
	}
	if _, ok := replica.Get(ghost); ok {
		t.Errorf("the refused snapshot installed %s", ghost)
	}
}
