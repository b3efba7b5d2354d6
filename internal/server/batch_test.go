package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"cqp/internal/obs"
)

// batchBody builds a /personalize/batch request around a list of items.
func batchBody(items ...map[string]any) map[string]any {
	return map[string]any{"items": items}
}

func batchItem(profileID, sql string) map[string]any {
	return map[string]any{
		"sql":        sql,
		"profile_id": profileID,
		"problem":    map[string]any{"number": 2, "cmax_ms": 10000},
	}
}

// TestBatchEndpoint: duplicates within a batch coalesce onto one pipeline
// run, a malformed item fails alone with a per-item error, and results stay
// aligned with input order.
func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	const q2 = "SELECT title FROM MOVIE WHERE year >= 1990"
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody(
		batchItem("alice", testSQL),                    // 0: leader
		batchItem("alice", q2),                         // 1: distinct query
		batchItem("alice", testSQL),                    // 2: duplicate of 0
		batchItem("alice", "SELECT nope FROM NOWHERE"), // 3: malformed, fails alone
		batchItem("alice", testSQL),                    // 4: duplicate of 0
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Results []struct {
			SQL       string `json:"sql"`
			ProfileID string `json:"profile_id"`
			Duplicate bool   `json:"duplicate"`
			Error     *struct {
				Class   string `json:"class"`
				Message string `json:"message"`
			} `json:"error"`
		} `json:"results"`
		Distinct   int `json:"distinct"`
		Duplicates int `json:"duplicates"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch body: %v: %s", err, body)
	}
	if len(br.Results) != 5 {
		t.Fatalf("got %d results for 5 items", len(br.Results))
	}
	if br.Distinct != 2 || br.Duplicates != 2 {
		t.Errorf("distinct=%d duplicates=%d, want 2 and 2", br.Distinct, br.Duplicates)
	}
	for _, i := range []int{0, 1, 2, 4} {
		r := br.Results[i]
		if r.Error != nil {
			t.Fatalf("item %d: unexpected error %+v", i, r.Error)
		}
		if r.SQL == "" || r.ProfileID != "alice" {
			t.Fatalf("item %d: incomplete response: %+v", i, r)
		}
	}
	if br.Results[3].Error == nil || br.Results[3].Error.Class != "bad_request" {
		t.Errorf("malformed item error = %+v, want per-item bad_request", br.Results[3].Error)
	}
	if br.Results[3].SQL != "" {
		t.Error("failed item must not carry a response body")
	}
	if !br.Results[2].Duplicate || !br.Results[4].Duplicate {
		t.Error("items 2 and 4 should be marked duplicate")
	}
	if br.Results[0].Duplicate || br.Results[1].Duplicate {
		t.Error("leaders must not be marked duplicate")
	}
	// Order preservation: each result answers its own item's query shape.
	if br.Results[0].SQL == br.Results[1].SQL {
		t.Error("distinct queries produced identical rewrites — results misaligned?")
	}
	if br.Results[2].SQL != br.Results[0].SQL {
		t.Error("duplicate must share its leader's rewrite")
	}
	// Exactly one pipeline run per distinct item.
	if got := s.reg.Counter("personalize_total").Value(); got != 2 {
		t.Errorf("personalize_total = %d, want 2 (deduplicated runs)", got)
	}
	// Batch leaders fill the shared result cache: a singleton /personalize
	// for the same work is now a cache hit.
	resp2, body2 := doJSON(t, http.MethodPost, ts.URL+"/personalize", map[string]any{
		"sql": testSQL, "profile_id": "alice",
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("follow-up personalize: %d: %s", resp2.StatusCode, body2)
	}
	var single personalizeResponse
	if err := json.Unmarshal(body2, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Error("singleton request after a batch leader should hit the cache")
	}
}

// TestBatchEndpointLimits: empty batches and batches past BatchMaxItems are
// rejected whole with 400.
func TestBatchEndpointLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchMaxItems: 2})
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody())
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", resp.StatusCode)
	}
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody(
		batchItem("a", testSQL), batchItem("b", testSQL), batchItem("c", testSQL),
	))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestBatchEndpointUnknownProfile: a missing stored profile is a per-item
// 404-class error, not a whole-batch failure.
func TestBatchEndpointUnknownProfile(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody(
		batchItem("ghost", testSQL),
		batchItem("alice", testSQL),
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, body)
	}
	var br struct {
		Results []struct {
			SQL   string `json:"sql"`
			Error *struct {
				Class string `json:"class"`
			} `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Error == nil || br.Results[0].Error.Class != "not_found" {
		t.Errorf("unknown profile item = %+v, want not_found error", br.Results[0])
	}
	if br.Results[1].Error != nil || br.Results[1].SQL == "" {
		t.Errorf("valid item should still succeed: %+v", br.Results[1])
	}
}

// TestRungSeverityOrdering pins the severity lattice the batch aggregate
// sorts by: full fidelity < stale_replica < stale < heuristic < tight-cmax
// < unknown rungs < unavailable.
func TestRungSeverityOrdering(t *testing.T) {
	order := []string{"", degradedStaleReplica, "stale", "heuristic", "tight-cmax", "brand-new-rung", "unavailable"}
	for i := 1; i < len(order); i++ {
		if rungSeverity(order[i-1]) >= rungSeverity(order[i]) {
			t.Errorf("severity(%q)=%d not below severity(%q)=%d",
				order[i-1], rungSeverity(order[i-1]), order[i], rungSeverity(order[i]))
		}
	}
}

// TestBatchRungAggregation: a batch whose units land on different ladder
// rungs must record the WORST rung on its flight record — not whichever
// unit's goroutine wrote last — and break the spectrum down in
// degraded_counts. One item is answered from the stale cache (rung
// "stale"), the other exhausts the ladder (rung "unavailable").
func TestBatchRungAggregation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	// Warm the cache for item A, then rotate the profile version: A's
	// exact cache key dies but its stale key survives.
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d: %s", resp.StatusCode, raw)
	}
	putProfile(t, ts.URL, "alice", testProfileText())

	// Every search attempt now dies: item A falls to its stale answer,
	// item B (no stale entry) exhausts the whole ladder.
	armPlan(t, "search.expand:err:1", 1)
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody(
		batchItem("alice", testSQL),
		batchItem("alice", "SELECT title FROM MOVIE WHERE year >= 1990"),
	))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, raw)
	}
	var br struct {
		Results []struct {
			Degraded string `json:"degraded"`
			Error    *struct {
				Class string `json:"class"`
			} `json:"error"`
		} `json:"results"`
		DegradedCounts map[string]int `json:"degraded_counts"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body: %v: %s", err, raw)
	}
	if br.Results[0].Error != nil || br.Results[0].Degraded != "stale" {
		t.Fatalf("item A = %+v, want degraded:stale", br.Results[0])
	}
	if br.Results[1].Error == nil || br.Results[1].Error.Class != "degraded_unavailable" {
		t.Fatalf("item B = %+v, want degraded_unavailable error", br.Results[1])
	}
	if br.DegradedCounts["stale"] != 1 || br.DegradedCounts["unavailable"] != 1 {
		t.Errorf("degraded_counts = %v, want {stale:1 unavailable:1}", br.DegradedCounts)
	}
	recs := s.flight.Snapshot(obs.Filter{Endpoint: "batch", Limit: 1})
	if len(recs) != 1 {
		t.Fatalf("flight records for batch = %d, want 1", len(recs))
	}
	// The regression: concurrent units each SetRung on the shared record,
	// so the record showed whichever unit finished last ("stale" half the
	// time). The aggregate must always pick the worst.
	if recs[0].Rung != "unavailable" {
		t.Errorf("flight record rung = %q, want unavailable (the worst of the batch)", recs[0].Rung)
	}
}

// TestBatchExecuteSharedScans: execute-mode batches return ranked rows per
// item, run one physical pass per base relation for the whole batch (the
// rest of the opens are answered from the share), and fill the /execute
// result cache so a follow-up singleton is a hit.
func TestBatchExecuteSharedScans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	// any_match keeps the executed answers non-empty (the all-match
	// intersection of a 40-selection profile is usually empty).
	item := func(sql string) map[string]any {
		m := batchItem("alice", sql)
		m["any_match"] = true
		return m
	}
	body := map[string]any{
		"execute": true,
		"items": []map[string]any{
			item(testSQL),
			item("SELECT title FROM MOVIE WHERE year >= 1990"),
			item(testSQL), // duplicate of 0
		},
	}
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, raw)
	}
	var br struct {
		Results []struct {
			SQL       string `json:"sql"`
			Duplicate bool   `json:"duplicate"`
			RowCount  int    `json:"row_count"`
			TotalRows int    `json:"total_rows"`
			Blocks    int64  `json:"block_reads"`
			Rows      []struct {
				Values []string `json:"values"`
			} `json:"rows"`
			Error *struct {
				Message string `json:"message"`
			} `json:"error"`
		} `json:"results"`
		SharedScans   int64 `json:"shared_scans"`
		PhysicalScans int64 `json:"physical_scans"`
	}
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body: %v: %s", err, raw)
	}
	for i, r := range br.Results {
		if r.Error != nil {
			t.Fatalf("item %d: %+v", i, r.Error)
		}
		if r.SQL == "" || r.TotalRows == 0 || len(r.Rows) == 0 || r.Blocks == 0 {
			t.Fatalf("item %d: incomplete execute payload: %+v", i, r)
		}
	}
	if !br.Results[2].Duplicate || br.Results[2].TotalRows != br.Results[0].TotalRows {
		t.Errorf("duplicate item should replay its leader's execution: %+v", br.Results[2])
	}
	if br.PhysicalScans == 0 || br.SharedScans == 0 {
		t.Errorf("scan share never engaged: physical=%d shared=%d", br.PhysicalScans, br.SharedScans)
	}
	if got := s.reg.Counter("server_batch_shared_scans_total").Value(); got != br.SharedScans {
		t.Errorf("shared-scan counter = %d, response says %d", got, br.SharedScans)
	}

	// Cache interop: the same item as a singleton /execute is now a hit.
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/execute", map[string]any{
		"sql": testSQL, "profile_id": "alice", "any_match": true,
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up execute: %d: %s", resp.StatusCode, raw)
	}
	var single executeResponse
	if err := json.Unmarshal(raw, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Cached {
		t.Error("singleton /execute after an execute-mode batch leader should hit the cache")
	}
	if single.TotalRows != br.Results[0].TotalRows || single.BlockReads != br.Results[0].Blocks {
		t.Errorf("singleton answer diverged from batch: %d rows/%d blocks vs %d/%d",
			single.TotalRows, single.BlockReads, br.Results[0].TotalRows, br.Results[0].Blocks)
	}
}
