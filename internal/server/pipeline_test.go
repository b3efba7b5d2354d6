package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cqp/internal/fault"
	"cqp/internal/value"
)

// contractReply is what the endpoint contract looks at: the envelope of a
// singleton response or of the one item of a batch, the error class either
// way, and the flight record's role.
type contractReply struct {
	status    int // the HTTP status (a batch answers 200 whatever its item did)
	id        string
	Cached    bool             `json:"cached"`
	Degraded  string           `json:"degraded"`
	Trace     string           `json:"trace"`
	RequestID string           `json:"request_id"`
	AttrUS    map[string]int64 `json:"attribution_us"`
	Error     *errorBody       `json:"error"`
}

// contractCase is one way into the request driver.
type contractCase struct {
	name    string
	path    string
	params  map[string]any // the endpoint's own body fields
	batch   bool           // wrap the body as the one item of a batch
	execute bool           // batch execute mode
	// fault is a plan that fails the endpoint's full-fidelity run and every
	// rung below stale. /personalize and /front never scan the heap, so
	// storage.scan cannot reach them; their estimation is poisoned instead.
	fault string
}

var solveParams = map[string]any{"problem": map[string]any{"number": 2, "cmax_ms": 10000}, "any_match": true}

var contractCases = []contractCase{
	{name: "personalize", path: "/personalize", params: solveParams, fault: "estimate.histogram:err"},
	{name: "execute", path: "/execute", params: solveParams, fault: "storage.scan:err"},
	{name: "front", path: "/front", params: map[string]any{"cmax_ms": 10000, "max_points": 4}, fault: "estimate.histogram:err"},
	{name: "topk", path: "/topk", params: map[string]any{"cmax_ms": 10000, "k": 3}, fault: "storage.scan:err"},
	{name: "batch item", path: "/personalize/batch", params: solveParams, batch: true, fault: "estimate.histogram:err"},
	{name: "execute-mode batch item", path: "/personalize/batch", params: solveParams, batch: true, execute: true, fault: "storage.scan:err"},
}

// send posts the case's request with the common-part overrides in mods
// ("profile" replaces the stored profile by an inline one) and decodes the
// reply.
func (cc contractCase) send(t *testing.T, base, query string, mods map[string]any) contractReply {
	t.Helper()
	body := map[string]any{"sql": testSQL, "profile_id": "alice"}
	for k, v := range cc.params {
		body[k] = v
	}
	for k, v := range mods {
		body[k] = v
	}
	if _, inline := mods["profile"]; inline {
		delete(body, "profile_id")
	}
	if cc.batch {
		// A batch has one deadline: timeout_ms is the batch's, not the item's.
		timeout := body["timeout_ms"]
		delete(body, "timeout_ms")
		body = map[string]any{"items": []any{body}, "execute": cc.execute, "timeout_ms": timeout}
	}
	resp, raw := doJSON(t, http.MethodPost, base+cc.path+query, body)
	out := contractReply{status: resp.StatusCode, id: resp.Header.Get("X-Request-ID")}
	into := any(&out)
	if cc.batch && resp.StatusCode == http.StatusOK {
		into = &struct{ Results []*contractReply }{[]*contractReply{&out}}
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("%s reply does not parse: %v: %s", cc.name, err, raw)
	}
	return out
}

// role waits for the reply's flight record and returns its role.
func (r contractReply) role(t *testing.T, s *Server) string {
	t.Helper()
	var role string
	waitObs(t, "flight record "+r.id, func() bool {
		snap, _, ok := s.flight.Get(r.id)
		role = snap.Role
		return ok
	})
	return role
}

// ok asserts a 2xx answer with the given cached and degraded marks.
func (r contractReply) ok(t *testing.T, step string, cached bool, degraded string) {
	t.Helper()
	if r.status != http.StatusOK || r.Error != nil {
		t.Fatalf("%s: status %d error %+v, want an answer", step, r.status, r.Error)
	}
	if r.Cached != cached || r.Degraded != degraded {
		t.Fatalf("%s: cached=%v degraded=%q, want cached=%v degraded=%q", step, r.Cached, r.Degraded, cached, degraded)
	}
}

// TestEndpointContract drives every way into the request driver through the
// same sequence and expects the same behaviour from each: the stale rung,
// shedding to stale and the deadline are the driver's, not an endpoint's.
func TestEndpointContract(t *testing.T) {
	for _, cc := range contractCases {
		t.Run(cc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
			putProfile(t, ts.URL, "alice", testProfileText())
			send := func(query string, mods map[string]any) contractReply {
				t.Helper()
				return cc.send(t, ts.URL, query, mods)
			}

			miss := send("", nil)
			miss.ok(t, "miss", false, "")
			if role := miss.role(t, s); role != "leader" {
				t.Errorf("miss: role %q, want leader", role)
			}
			hit := send("", nil)
			hit.ok(t, "hit", true, "")
			if role := hit.role(t, s); role != "hit" {
				t.Errorf("hit: role %q, want hit", role)
			}

			entries := s.cache.Len()
			fresh := send("", map[string]any{"no_cache": true})
			fresh.ok(t, "no_cache", false, "")
			if role := fresh.role(t, s); role != "solo" {
				t.Errorf("no_cache: role %q, want solo", role)
			}
			for i := 0; i < 2; i++ {
				send("", map[string]any{"profile": testProfileText()}).ok(t, "inline profile", false, "")
			}
			if got := s.cache.Len(); got != entries {
				t.Errorf("no_cache and inline requests grew the cache from %d to %d entries", entries, got)
			}

			putProfile(t, ts.URL, "alice", testProfileText())
			send("", nil).ok(t, "after profile PUT", false, "")
			send("", nil).ok(t, "rotated key cached", true, "")

			// The pipeline is down and the exact key has rotated away: the
			// version-free stale index answers. A movie inserted first makes
			// the base the earlier executions cached stale, so that an
			// execution reads the store again, where storage.scan strikes.
			putProfile(t, ts.URL, "alice", testProfileText())
			s.db.MustTable("MOVIE").MustInsert(value.Int(1_000_000), value.Str("Unseen"), value.Int(1900), value.Int(1), value.Int(-1))
			armPlan(t, cc.fault, 1)
			send("", nil).ok(t, "injected "+cc.fault, true, "stale")
			fault.Disarm()

			// Shed: the one worker is busy and the one queue slot taken. The
			// stale answer must be shaped like any other — under ?trace=1 it
			// carries the trace payload (it used to be written bare).
			release := blockPool(t, s.pool, 1)
			defer release()
			queued := make(chan error, 1)
			go func() { queued <- s.pool.Do(context.Background(), func(context.Context) {}) }()
			waitFor(t, func() bool { return s.reg.Gauge("server_queue_depth").Value() == 1 })
			shed := send("?trace=1", nil)
			shed.ok(t, "shed + stale", true, "stale")
			if !cc.batch {
				if shed.RequestID != shed.id || shed.Trace == "" || shed.AttrUS["total"] <= 0 {
					t.Errorf("shed + stale under ?trace=1: request_id=%q (header %q) trace=%q attribution=%v",
						shed.RequestID, shed.id, shed.Trace, shed.AttrUS)
				}
			}
			if s.reg.Counter("server_shed_total").Value() == 0 {
				t.Error("the pool never shed")
			}
			// Shed with no stale answer to fall back on is the 429.
			bare := send("", map[string]any{"no_cache": true})
			if bare.Error == nil || bare.Error.Class != "saturated" || (!cc.batch && bare.status != http.StatusTooManyRequests) {
				t.Errorf("shed without a stale entry: status %d error %+v, want saturated", bare.status, bare.Error)
			}
			release()
			if err := <-queued; err != nil {
				t.Fatalf("queued filler failed: %v", err)
			}

			// A deadline that lapses behind a busy worker, again with nothing
			// stale to serve.
			release = blockPool(t, s.pool, 1)
			defer release()
			late := send("", map[string]any{"no_cache": true, "timeout_ms": 30})
			if late.Error == nil || late.Error.Class != "timeout" || (!cc.batch && late.status != http.StatusGatewayTimeout) {
				t.Errorf("expired deadline: status %d error %+v, want timeout", late.status, late.Error)
			}
		})
	}
}

// TestBatchRoleDeterministic: a batch's flight-record role is an aggregate
// written once after its units finished, not whichever unit wrote last. One
// unit leads a cacheable miss, the other runs solo (no_cache); against the
// same cache state the record must say "solo" every time.
func TestBatchRoleDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	solo := batchItem("alice", "SELECT title FROM MOVIE WHERE year >= 1990")
	solo["no_cache"] = true
	body, err := json.Marshal(batchBody(batchItem("alice", testSQL), solo))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		putProfile(t, ts.URL, "alice", testProfileText()) // the cacheable unit misses, and leads, every run
		id := fmt.Sprintf("batch-role-%d", i)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/personalize/batch", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		if role := (contractReply{id: id}).role(t, s); role != "solo" {
			t.Fatalf("run %d: batch role %q, want solo", i, role)
		}
	}
}
