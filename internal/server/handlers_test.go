package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cqp"
)

// newTestServer builds a daemon over a small synthetic database and wraps
// it in an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	db := cqp.SyntheticMovieDB(300, 1)
	s, err := New(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.pool.Close()
	})
	return s, ts
}

func testProfileText() string { return cqp.SyntheticProfile(40, 2).String() }

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
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

func putProfile(t *testing.T, base, id, text string) profileJSON {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/profiles/"+id, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT profile: %d: %s", resp.StatusCode, b)
	}
	var pj profileJSON
	if err := json.NewDecoder(resp.Body).Decode(&pj); err != nil {
		t.Fatal(err)
	}
	return pj
}

const testSQL = "SELECT title FROM MOVIE"

func personalizeBody(profileID string) map[string]any {
	return map[string]any{
		"sql":        testSQL,
		"profile_id": profileID,
		"problem":    map[string]any{"number": 2, "cmax_ms": 10000},
		"trace":      true,
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Fatalf("healthz body: %s", body)
	}
}

func TestProfileCRUDOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Invalid text is rejected.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/profiles/bad", strings.NewReader("doi(NOPE.x = 1) = 2"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad profile PUT: %d, want 400", resp.StatusCode)
	}

	pj := putProfile(t, ts.URL, "alice", testProfileText())
	if pj.Version == 0 || pj.Preferences == 0 {
		t.Fatalf("stored profile: %+v", pj)
	}
	resp2, body := doJSON(t, http.MethodGet, ts.URL+"/profiles/alice", nil)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(string(body), "doi(") {
		t.Fatalf("GET profile: %d %s", resp2.StatusCode, body)
	}
	resp3, body := doJSON(t, http.MethodGet, ts.URL+"/profiles", nil)
	if resp3.StatusCode != http.StatusOK || !strings.Contains(string(body), `"alice"`) {
		t.Fatalf("list profiles: %d %s", resp3.StatusCode, body)
	}
	resp4, _ := doJSON(t, http.MethodDelete, ts.URL+"/profiles/alice", nil)
	if resp4.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d, want 204", resp4.StatusCode)
	}
	resp5, _ := doJSON(t, http.MethodGet, ts.URL+"/profiles/alice", nil)
	if resp5.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted: %d, want 404", resp5.StatusCode)
	}
	// Personalizing against the deleted profile is a 404 too.
	resp6, _ := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp6.StatusCode != http.StatusNotFound {
		t.Fatalf("personalize with deleted profile: %d, want 404", resp6.StatusCode)
	}
}

// TestProfilePutNaNDoiRejected: a profile with a NaN doi is a 400, and
// nothing is stored.
func TestProfilePutNaNDoiRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/profiles/nan", strings.NewReader("doi(MOVIE.year = 1990) = NaN\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "outside [0,1]") {
		t.Fatalf("PUT with a NaN doi: %d %s, want 400 outside [0,1]", resp.StatusCode, body)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/profiles/nan", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after the rejected PUT: %d, want 404", resp.StatusCode)
	}
}

// TestPersonalizeCacheMissThenHit is the acceptance check: the second
// identical request answers from the cache — server_cache_hits increments
// and the trace carries no search span, i.e. the pipeline never ran.
func TestPersonalizeCacheMissThenHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	resp, body := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold personalize: %d: %s", resp.StatusCode, body)
	}
	var cold personalizeResponse
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("cold request reported cached")
	}
	if !strings.Contains(cold.Trace, "search") {
		t.Fatalf("cold trace missing search span:\n%s", cold.Trace)
	}
	if cold.SQL == "" {
		t.Fatal("cold response missing SQL")
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm personalize: %d: %s", resp.StatusCode, body)
	}
	var warm personalizeResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("warm request not served from cache")
	}
	if strings.Contains(warm.Trace, "search") {
		t.Fatalf("warm trace ran the search stage:\n%s", warm.Trace)
	}
	if !strings.Contains(warm.Trace, "cache_hit") {
		t.Fatalf("warm trace missing cache_hit span:\n%s", warm.Trace)
	}
	if warm.SQL != cold.SQL {
		t.Fatal("cached SQL differs from cold SQL")
	}
	if h := s.Registry().Counter("server_cache_hits").Value(); h != 1 {
		t.Errorf("server_cache_hits = %d, want 1", h)
	}
}

// TestProfileVersionInvalidatesCache: replacing the profile bumps its
// version, so the same request misses and repersonalizes.
func TestProfileVersionInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	v1 := putProfile(t, ts.URL, "alice", testProfileText())
	_, body := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	var first personalizeResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.ProfileVersion != v1.Version {
		t.Fatalf("response version %d, stored %d", first.ProfileVersion, v1.Version)
	}

	v2 := putProfile(t, ts.URL, "alice", testProfileText())
	if v2.Version <= v1.Version {
		t.Fatalf("version did not advance: %d -> %d", v1.Version, v2.Version)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("%d cache entries after the profile PUT, want 1: the identity's, superseded", s.cache.Len())
	}
	_, body = doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	var second personalizeResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Fatal("request after profile replacement served stale cache entry")
	}
	if second.ProfileVersion != v2.Version {
		t.Fatalf("second response version %d, want %d", second.ProfileVersion, v2.Version)
	}
}

// TestRefreshInvalidatesCache: POST /refresh bumps the statistics
// generation, which supersedes every cached answer.
func TestRefreshInvalidatesCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if s.cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", s.cache.Len())
	}
	gen := s.p.Generation()
	resp, _ := doJSON(t, http.MethodPost, ts.URL+"/refresh", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh: %d", resp.StatusCode)
	}
	if s.p.Generation() != gen+1 {
		t.Fatal("refresh did not advance the generation")
	}
	if s.cache.Len() != 1 {
		t.Fatalf("%d cache entries after the refresh, want 1: the identity's, superseded", s.cache.Len())
	}
	_, body := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	var after personalizeResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-refresh request served a stale entry")
	}
}

// TestInlineProfileNeverCached: inline profiles have no stable identity, so
// their results must not populate the cache.
func TestInlineProfileNeverCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := map[string]any{
		"sql":     testSQL,
		"profile": testProfileText(),
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	}
	for i := 0; i < 2; i++ {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inline personalize: %d: %s", resp.StatusCode, data)
		}
		var pr personalizeResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Cached {
			t.Fatal("inline-profile request served from cache")
		}
	}
	if s.cache.Len() != 0 {
		t.Fatalf("inline requests left %d cache entries", s.cache.Len())
	}
}

// TestDeadlineExpiry: a request whose deadline lapses while it waits behind
// a busy worker gets 504 without ever entering the pipeline.
func TestDeadlineExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	putProfile(t, ts.URL, "alice", testProfileText())
	release := blockPool(t, s.pool, 1)
	defer release()

	body := personalizeBody("alice")
	body["timeout_ms"] = 30
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request: %d (%s), want 504", resp.StatusCode, data)
	}
}

// TestLoadShedding: with the one worker busy and the queue full, the next
// request is shed with 429 and a Retry-After header.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	putProfile(t, ts.URL, "alice", testProfileText())
	release := blockPool(t, s.pool, 1)
	defer release()

	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		queued <- s.pool.Do(context.Background(), func(context.Context) {})
	}()
	waitFor(t, func() bool { return s.Registry().Gauge("server_queue_depth").Value() == 1 })

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.Registry().Counter("server_shed_total").Value() == 0 {
		t.Error("server_shed_total did not increment")
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued filler failed: %v", err)
	}
}

func TestExecuteReturnsRankedRows(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	body := map[string]any{
		"sql":        testSQL,
		"profile_id": "alice",
		"problem":    map[string]any{"number": 2, "cmax_ms": 10000},
		"any_match":  true,
		"limit":      5,
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d: %s", resp.StatusCode, data)
	}
	var er executeResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.RowCount > 5 {
		t.Fatalf("row_count %d exceeds limit 5", er.RowCount)
	}
	if er.RowCount != len(er.Rows) {
		t.Fatalf("row_count %d != len(rows) %d", er.RowCount, len(er.Rows))
	}
	if er.TotalRows < er.RowCount {
		t.Fatalf("total_rows %d < row_count %d", er.TotalRows, er.RowCount)
	}
	for i := 1; i < len(er.Rows); i++ {
		if er.Rows[i].Doi > er.Rows[i-1].Doi {
			t.Fatal("rows not ranked by decreasing doi")
		}
	}
	// Warm run hits the cache.
	_, data = doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	var warm executeResponse
	if err := json.Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("second execute not cached")
	}
	if warm.TotalRows != er.TotalRows {
		t.Fatal("cached execute differs from cold run")
	}
}

func TestFrontAndTopK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/front", map[string]any{
		"sql": testSQL, "profile_id": "alice", "max_points": 8,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front: %d: %s", resp.StatusCode, data)
	}
	var fr frontResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) == 0 {
		t.Fatal("empty frontier")
	}
	if fr.Truncated {
		t.Fatal("unbudgeted frontier sweep reported truncation")
	}

	resp, data = doJSON(t, http.MethodPost, ts.URL+"/topk", map[string]any{
		"sql": testSQL, "profile_id": "alice", "cmax_ms": 10000, "k": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topk: %d: %s", resp.StatusCode, data)
	}
	var tk topkResponse
	if err := json.Unmarshal(data, &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.Answers) == 0 || len(tk.Answers) > 3 {
		t.Fatalf("topk returned %d answers, want 1..3", len(tk.Answers))
	}
}

// TestFrontTruncatedUnderTinyBudget pins the Pareto-sweep stats plumbing:
// a state budget too small for the exhaustive sweep must surface as
// truncated:true, so a client knows the menu it got is partial.
func TestFrontTruncatedUnderTinyBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/front", map[string]any{
		"sql": testSQL, "profile_id": "alice", "max_points": 8, "budget": 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front: %d: %s", resp.StatusCode, data)
	}
	var fr frontResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	if !fr.Truncated {
		t.Fatalf("budget=1 frontier not marked truncated: %s", data)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	cases := []map[string]any{
		{"sql": "SELECT nope FROM NOWHERE", "profile_id": "alice"}, // bad SQL
		{"sql": testSQL}, // no profile
		{"sql": testSQL, "profile_id": "alice", "profile": "doi(x) = 1"},                // both profile forms
		{"sql": testSQL, "profile_id": "alice", "problem": map[string]any{"number": 9}}, // bad problem
		// An unknown algorithm is the caller's mistake on every problem, not
		// on Problem 2 alone.
		{"sql": testSQL, "profile_id": "alice", "algorithm": "NOPE",
			"problem": map[string]any{"number": 3, "cmax_ms": 1000, "smin": 1, "smax": 1000}},
	}
	for i, c := range cases {
		resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %d, want 400", i, resp.StatusCode)
		}
		if c["algorithm"] != nil && !strings.Contains(string(data), `unknown algorithm \"NOPE\"`) {
			t.Errorf("case %d: %s", i, data)
		}
	}
}

// TestTrailingDataRejected: a pipeline body is one JSON value with nothing
// after it but whitespace. Anything else is 400 bad_request, standalone and
// at a cluster node that does not own the profile alike (that node used to
// peek at the body leniently, fail, serve it from its own store and answer
// 404 no profile).
func TestTrailingDataRejected(t *testing.T) {
	post := func(t *testing.T, url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, errorClass(data)
	}
	value := `{"sql":"` + testSQL + `","profile_id":"alice"}`

	t.Run("standalone", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		putProfile(t, ts.URL, "alice", testProfileText())
		cases := []struct {
			path, body string
			want       int
		}{
			{"/personalize", value, http.StatusOK},
			{"/personalize", value + " \n\t\r\n", http.StatusOK},
			{"/personalize", value + "  trailing-garbage", http.StatusBadRequest},
			{"/personalize", value + `{"sql":"x"}`, http.StatusBadRequest},
			{"/execute", value + " 1", http.StatusBadRequest},
			{"/personalize/batch", `{"items":[` + value + `]} x`, http.StatusBadRequest},
		}
		for _, c := range cases {
			code, class := post(t, ts.URL+c.path, c.body)
			if code != c.want || (c.want == http.StatusBadRequest && class != "bad_request") {
				t.Errorf("%s %q: %d %s, want %d", c.path, c.body, code, class, c.want)
			}
		}
	})

	t.Run("cluster non-owner", func(t *testing.T) {
		tc := newTestCluster(t, []string{"n1", "n2"}, false)
		key := tc.keyOwnedBy("n1")
		putProfile(t, tc.url("n1"), key, testProfileText())
		body := strings.Replace(value, "alice", key, 1)
		if code, _ := post(t, tc.url("n2")+"/personalize", body); code != http.StatusOK {
			t.Fatalf("via n2: %d, want 200", code)
		}
		if code, class := post(t, tc.url("n2")+"/personalize", body+" x"); code != http.StatusBadRequest || class != "bad_request" {
			t.Fatalf("via n2 with trailing data: %d %s, want 400 bad_request", code, class)
		}
	})
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("alice"))
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"server_requests_total", "server_request_ms", "server_cache_misses",
		"personalize_total", "go_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// TestGracefulShutdown: a live server drains and Shutdown returns cleanly.
func TestGracefulShutdown(t *testing.T) {
	db := cqp.SyntheticMovieDB(200, 1)
	s, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve returned %v after shutdown", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
	// Pool rejects new work after drain.
	if err := s.pool.Do(context.Background(), func(context.Context) {}); err != ErrShuttingDown {
		t.Fatalf("pool after shutdown: %v", err)
	}
}

// TestShutdownClosesSilentConnection: a connection that never sends a
// request — what a peer's client leaves behind when a dial it started loses
// the race to an idle connection — does not hold Shutdown for the 5 s
// net/http waits on such a connection: Shutdown closes it a moment after the
// listener and returns inside a 3 s deadline.
func TestShutdownClosesSilentConnection(t *testing.T) {
	s, err := New(cqp.SyntheticMovieDB(200, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.fresh) == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a silent connection open: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("the silent connection reads %v, want EOF: the server closed it", err)
	}
}

// TestExecuteLimitTotalRows: /execute and an execute-mode batch item keep a
// heap of limit rows instead of ranking the whole answer, and still answer
// what the library's full execution does — its first limit rows, and its
// length as total_rows.
func TestExecuteLimitTotalRows(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	q, err := cqp.ParseQuery(s.db.Schema(), testSQL)
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := s.store.Get("alice")
	res, err := s.p.Personalize(q, stored.Profile, cqp.Problem2(10000), buildOpts("", 0, 0, true, false)...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	if len(full.Rows) <= limit {
		t.Fatalf("fixture too small: the library's answer has %d rows, want more than %d", len(full.Rows), limit)
	}
	var want []rowJSON
	for _, rr := range full.Rows[:limit] {
		vals := make([]string, len(rr.Key))
		for j, v := range rr.Key {
			vals[j] = v.String()
		}
		want = append(want, rowJSON{Values: vals, Doi: rr.Doi, Matched: len(rr.Matched)})
	}
	check := func(what string, rows []rowJSON, total int) {
		t.Helper()
		if total != len(full.Rows) {
			t.Errorf("%s: total_rows %d, the library's answer has %d", what, total, len(full.Rows))
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("%s: rows %+v, the library's first %d are %+v", what, rows, limit, want)
		}
	}
	// no_cache on both: each runs its own execution, neither replays the other.
	item := map[string]any{
		"sql": testSQL, "profile_id": "alice", "any_match": true, "no_cache": true,
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch",
		map[string]any{"execute": true, "limit": limit, "items": []map[string]any{item}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	var br struct {
		Results []struct {
			Rows      []rowJSON  `json:"rows"`
			TotalRows int        `json:"total_rows"`
			Error     *errorBody `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Error != nil {
		t.Fatalf("batch: %s", data)
	}
	check("batch item", br.Results[0].Rows, br.Results[0].TotalRows)

	item["limit"] = limit
	resp, data = doJSON(t, http.MethodPost, ts.URL+"/execute", item)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: %d: %s", resp.StatusCode, data)
	}
	var er executeResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	check("/execute", er.Rows, er.TotalRows)
	if er.RowCount != limit {
		t.Errorf("/execute: row_count %d, want %d", er.RowCount, limit)
	}
}
