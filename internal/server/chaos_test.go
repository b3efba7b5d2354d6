package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"cqp/internal/fault"
	"cqp/internal/value"
)

// armPlan parses and arms a fault plan for the duration of the test. The
// armed plan is process-wide, so chaos tests must not run in parallel with
// each other (none of this package's tests call t.Parallel).
func armPlan(t *testing.T, spec string, seed int64) *fault.Plan {
	t.Helper()
	plan, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	t.Cleanup(fault.Disarm)
	return plan
}

// degradedMarkers is the closed set a 2xx response's degraded field may
// carry; anything else is a malformed degraded response.
var degradedMarkers = map[string]bool{"": true, "stale": true, "heuristic": true, "tight-cmax": true}

// checkChaosBody asserts one chaos-run response body is well-formed: a 2xx
// parses into a response whose degraded marker is known, anything else
// parses into the error envelope with a non-empty class.
func checkChaosBody(t *testing.T, code int, body []byte) (degraded string) {
	t.Helper()
	if code >= 200 && code < 300 {
		var resp struct {
			Degraded string `json:"degraded"`
			Cached   bool   `json:"cached"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("2xx body does not parse: %v: %s", err, body)
		}
		if !degradedMarkers[resp.Degraded] {
			t.Fatalf("unknown degraded marker %q", resp.Degraded)
		}
		if resp.Degraded == "stale" && !resp.Cached {
			t.Errorf("stale response not marked cached: %s", body)
		}
		return resp.Degraded
	}
	var env errorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%d body is not the error envelope: %v: %s", code, err, body)
	}
	if env.Error.Class == "" || env.Error.Message == "" {
		t.Fatalf("%d envelope missing class or message: %s", code, body)
	}
	return ""
}

// TestChaosStorageErrorRatio is the acceptance-criterion run: with a plan
// injecting 10% storage-scan errors, at least 95% of requests must still be
// answered 2xx — fresh or explicitly marked degraded — with zero
// unrecovered panics (a panic would fail the test process under -race).
//
// The warm pass populates the version-free stale index; a profile update
// then rotates the exact keys away so every chaos request must run the
// pipeline (and, when it faults, fall back to the last good answer). A
// profile update leaves a query's materialized base cached, so a movie is
// inserted before every chaos request: each execution fills its base again
// and scans the heap, where the faults are.
func TestChaosStorageErrorRatio(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	movies := s.db.MustTable("MOVIE")

	for v := 0; v < 7; v++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/execute", chaosBody("/execute", v, false))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm /execute: %d: %s", resp.StatusCode, body)
		}
	}
	for v := 0; v < 3; v++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/topk", chaosBody("/topk", v, false))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm /topk: %d: %s", resp.StatusCode, body)
		}
	}
	putProfile(t, ts.URL, "alice", testProfileText()) // rotate exact keys

	armPlan(t, "storage.scan:err:0.1", 42)

	total, ok2xx := 0, 0
	for i := 0; i < 150; i++ {
		// Alternate the storage-heavy endpoints (personalize and front never
		// scan the heap, so they would dilute the fault pressure).
		path := "/execute"
		if i%3 == 2 {
			path = "/topk"
		}
		movies.MustInsert(value.Int(int64(1_000_000+i)), value.Str("Unseen"), value.Int(1900), value.Int(1), value.Int(-1))
		resp, body := doJSON(t, http.MethodPost, ts.URL+path, chaosBody(path, i%7, false))
		total++
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			ok2xx++
		}
		checkChaosBody(t, resp.StatusCode, body)
	}
	t.Logf("%d/%d answered 2xx\n%s", ok2xx, total, fault.Armed().Report())
	if c := fault.Armed().Counts()[fault.StorageScan]; c.Injected == 0 {
		t.Fatalf("no storage scan was injected over %d requests (%d scans): the run never reached the fault", total, c.Calls)
	}
	if ratio := float64(ok2xx) / float64(total); ratio < 0.95 {
		t.Errorf("2xx ratio %.3f (%d/%d) under 10%% storage errors, want >= 0.95\n%s",
			ratio, ok2xx, total, fault.Armed().Report())
	}
	if n := s.reg.Counter("server_panics_total", "endpoint", "execute").Value(); n != 0 {
		t.Errorf("%d panics escaped to the middleware", n)
	}

	// Disarm: the next pipeline request serves at full fidelity.
	fault.Disarm()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/execute", chaosBody("/execute", 1000, true))
	if resp.StatusCode != http.StatusOK || checkChaosBody(t, resp.StatusCode, body) != "" {
		t.Fatalf("daemon did not serve full fidelity after disarm: %d: %s", resp.StatusCode, body)
	}
}

// chaosBody builds a request body for the chaos runs; variant diversifies
// the cache key, noCache forces the pipeline.
func chaosBody(path string, variant int, noCache bool) map[string]any {
	b := map[string]any{
		"sql":        testSQL,
		"profile_id": "alice",
		"no_cache":   noCache,
	}
	switch path {
	case "/topk":
		b["cmax_ms"] = 10000
		b["k"] = 3 + variant%3
	case "/front":
		b["max_points"] = 4 + variant%4
	default:
		b["problem"] = map[string]any{"number": 2, "cmax_ms": 10000}
		b["limit"] = 5 + variant
	}
	return b
}

// TestChaosRandomizedAllEndpoints drives every pipeline endpoint
// concurrently through a multi-point randomized plan — errors, latency and
// panics at every injection site at once — and asserts only the structural
// invariants: every response is well-formed (2xx with a known degraded
// marker or the error envelope), no panic escapes the middleware uncounted,
// and the daemon still answers cleanly after the plan disarms.
func TestChaosRandomizedAllEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	armPlan(t, "storage.scan:err:0.1,exec.union:err:0.05,estimate.histogram:err:0.03,"+
		"search.expand:panic:0.0005,server.cache:err:0.05,exec.union:lat:0.05:5ms", 7)

	paths := []string{"/personalize", "/execute", "/front", "/topk"}
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes t.* calls and the tally from workers
	counts := map[int]int{}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := paths[(w+i)%len(paths)]
				resp, body := doJSON(t, http.MethodPost, ts.URL+path, chaosBody(path, i, i%2 == 0))
				mu.Lock()
				counts[resp.StatusCode]++
				checkChaosBody(t, resp.StatusCode, body)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	t.Logf("status counts: %v\nfaults:\n%s", counts, fault.Armed().Report())

	// Panics may have been injected (search.expand) — but every one must
	// have been contained by safeRun, the pool, or the middleware, so the
	// workers are all still alive and the daemon still serves.
	fault.Disarm()
	probe := personalizeBody("alice")
	probe["no_cache"] = true // a cache hit would not run the pipeline
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/personalize", probe); resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon did not answer after disarm: %d: %s", resp.StatusCode, body)
	}
	// Nothing nil may have been cached: replay every endpoint cacheable —
	// a nil entry would explode the type assertion on the hit path.
	for _, path := range paths {
		for range [2]int{} {
			resp, body := doJSON(t, http.MethodPost, ts.URL+path, chaosBody(path, 1, false))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-chaos %s: %d: %s", path, resp.StatusCode, body)
			}
		}
	}
}

// TestChaosStaleLadderRung pins the first rung's exact behavior: after a
// profile update rotates the exact cache key, a hard-down executor is
// answered from the version-free stale index — 200, cached, marked
// degraded:"stale" — instead of 503. A no_cache request has nothing stale,
// and every cheaper rung meets the same fault: 503 degraded_unavailable.
func TestChaosStaleLadderRung(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	body := chaosBody("/execute", 0, false)
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean run: %d: %s", resp.StatusCode, raw)
	}
	var fresh executeResponse
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatal(err)
	}

	// Rotate the version: the exact key dies, the stale key survives.
	putProfile(t, ts.URL, "alice", testProfileText())

	armPlan(t, "exec.union:err", 1)
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale rung: %d, want 200: %s", resp.StatusCode, raw)
	}
	var out executeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded != "stale" || !out.Cached {
		t.Errorf("degraded=%q cached=%v, want stale/true", out.Degraded, out.Cached)
	}
	// The stale answer is the fresh answer replayed, markers aside.
	if out.RowCount != fresh.RowCount || out.TotalRows != fresh.TotalRows || out.SQL != fresh.SQL {
		t.Errorf("stale answer diverged: rows %d/%d vs %d/%d",
			out.RowCount, out.TotalRows, fresh.RowCount, fresh.TotalRows)
	}
	if n := s.cache.staleHits.Value(); n == 0 {
		t.Error("stale hit not counted")
	}

	body["no_cache"] = true
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Class != "degraded_unavailable" {
		t.Errorf("hard-down executor, nothing stale: %d %s, want 503 degraded_unavailable", resp.StatusCode, raw)
	}
}

// TestChaosHeuristicLadderRung pins the second rung: with no stale entry
// available and the exact search's first expansion poisoned, the request is
// re-answered by D-HeurDoi and marked degraded:"heuristic".
func TestChaosHeuristicLadderRung(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	armPlan(t, "search.expand:err:x1", 3)
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize", map[string]any{
		"sql": testSQL, "profile_id": "alice", "no_cache": true,
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact search poisoned once: %d: %s, want 200", resp.StatusCode, raw)
	}
	var out personalizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded != "heuristic" || out.Solution.Algorithm != "D-HEURDOI" {
		t.Errorf("degraded %q by %q, want the heuristic rung by D-HEURDOI", out.Degraded, out.Solution.Algorithm)
	}
}

// TestChaosPanicContainment injects panics at the three layers with
// different recovery paths: the result cache on a request's handler
// goroutine (middleware recovery, a counted 500), the result cache on a
// batch item's goroutine (the item's own recovery, an item error), and the
// search (safeRun converts it to a transient failure, the ladder answers).
func TestChaosPanicContainment(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	// Handler-goroutine panic: first cacheable request trips it.
	armPlan(t, "server.cache:panic:x1", 5)
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("cache panic: %d, want 500: %s", resp.StatusCode, raw)
	}
	var env errorResponse
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Class != "internal" {
		t.Fatalf("cache panic envelope: %v %s", err, raw)
	}
	if n := s.reg.Counter("server_panics_total", "endpoint", "personalize").Value(); n != 1 {
		t.Errorf("server_panics_total = %d, want 1", n)
	}

	// Batch-item panic: an item's goroutine runs the lookup and the pipeline
	// itself, so only its own recovery stands between the panic and the
	// process. The struck item fails with class internal; the other answers.
	armPlan(t, "server.cache:panic:x1", 5)
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/personalize/batch", batchBody(
		batchItem("alice", testSQL), batchItem("alice", "SELECT title FROM MOVIE WHERE year >= 1990")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch item panic: %d, want 200: %s", resp.StatusCode, raw)
	}
	var batch struct {
		Results []struct {
			SQL   string     `json:"sql"`
			Error *errorBody `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, it := range batch.Results {
		switch {
		case it.Error != nil && it.Error.Class == "internal":
			failed++
		case it.Error != nil || it.SQL == "":
			t.Errorf("batch item: %+v, want an answer or an internal error", it)
		}
	}
	if failed != 1 {
		t.Errorf("%d batch items failed with class internal, want 1: %s", failed, raw)
	}
	if n := s.reg.Counter("server_panics_total", "endpoint", "batch").Value(); n != 1 {
		t.Errorf("server_panics_total{endpoint=batch} = %d, want 1", n)
	}

	// Pipeline panic: safeRun turns it into a transient failure, and the
	// ladder answers once the x1 cap drains.
	armPlan(t, "search.expand:panic:x1", 6)
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search panic: %d, want 200 from the ladder: %s", resp.StatusCode, raw)
	}
	if d := checkChaosBody(t, resp.StatusCode, raw); d != "" && d != "heuristic" && d != "tight-cmax" {
		t.Errorf("unexpected degraded marker %q", d)
	}

	// Either way the daemon is intact: workers alive, clean request clean.
	fault.Disarm()
	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: %d: %s", resp.StatusCode, raw)
	}
}

// TestFrontFaultNotCached: a /front whose search an injected fault aborts
// is a failed attempt, not an answer. It must not be cached, so once the
// fault is gone the same request is solved again and returns a front.
func TestFrontFaultNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	body := map[string]any{"sql": testSQL, "profile_id": "alice", "cmax_ms": 10000, "max_points": 8}

	armPlan(t, "search.expand:err:1", 1)
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/front", body)
	checkChaosBody(t, resp.StatusCode, raw)
	fault.Disarm()

	resp, raw = doJSON(t, http.MethodPost, ts.URL+"/front", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front after disarm: %d: %s", resp.StatusCode, raw)
	}
	var fr frontResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Cached || len(fr.Points) == 0 {
		t.Fatalf("front after disarm: cached %v with %d points, want a fresh non-empty front: %s", fr.Cached, len(fr.Points), raw)
	}
}

// TestFrontMaxPointsOne: a one-point front is the top-doi point, answered
// 200, and no pipeline fault is counted.
func TestFrontMaxPointsOne(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/front", map[string]any{"sql": testSQL, "profile_id": "alice", "max_points": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front with max_points 1: %d: %s", resp.StatusCode, raw)
	}
	var fr frontResponse
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != 1 {
		t.Fatalf("front with max_points 1 has %d points: %s", len(fr.Points), raw)
	}
	if n := s.reg.Counter("server_pipeline_faults_total", "endpoint", "front").Value(); n != 0 {
		t.Fatalf("server_pipeline_faults_total{front} = %d, want 0", n)
	}
}

// TestFrontLadderNamesCause: /front without cmax_ms has no ladder rung to
// try, so the primary attempt's failure is the only cause there is, and the
// 503 must name it.
func TestFrontLadderNamesCause(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	armPlan(t, "search.expand:err:1", 1)
	resp, raw := doJSON(t, http.MethodPost, ts.URL+"/front", map[string]any{"sql": testSQL, "profile_id": "alice", "max_points": 8})
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("search.expand")) {
		t.Fatalf("front under search.expand:err:1: %d: %s; want 503 naming the injected fault", resp.StatusCode, raw)
	}
}
