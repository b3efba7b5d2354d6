package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cqp"
)

// syncBuffer is a mutex-guarded log sink: the request log line is written in
// the handler's deferred finalizer, which can still be running when the
// client already has the response, so the test must synchronize and poll.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitObs polls until the predicate holds or the deadline passes.
func waitObs(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRequestIDEchoAndSanitize(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())

	// A well-formed incoming ID is honored and echoed.
	body, _ := json.Marshal(personalizeBody("u1"))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/personalize", strings.NewReader(string(body)))
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("echoed ID = %q, want client-id-42", got)
	}

	// An oversized ID is rejected and a fresh one minted instead.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/personalize", strings.NewReader(string(body)))
	req.Header.Set("X-Request-ID", strings.Repeat("a", 100))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "" || strings.Contains(got, "aaaa") {
		t.Fatalf("oversized ID not replaced: %q", got)
	}

	// No incoming ID: one is minted.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/personalize", strings.NewReader(string(body)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no request ID minted")
	}
}

// TestTraceAttributionAndDebug: a ?trace=1 request returns per-phase
// attribution whose unattributed remainder is under half the wall time, and
// the request is retrievable from /debug/requests/{id} with the identical
// span tree the response carried and the same bound on the sealed record.
// This is one cold first request; TestAttributionCoverage holds the warm
// share tight.
func TestTraceAttributionAndDebug(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())

	body := personalizeBody("u1")
	delete(body, "trace") // exercise the query knob, not the body flag
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize?trace=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("personalize: %d: %s", resp.StatusCode, data)
	}
	var pr personalizeResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.RequestID == "" || pr.Trace == "" || len(pr.AttributionUS) == 0 {
		t.Fatalf("trace payload missing: id=%q trace=%d bytes attr=%v", pr.RequestID, len(pr.Trace), pr.AttributionUS)
	}
	if pr.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("body request_id %q != header %q", pr.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if total, other := pr.AttributionUS["total"], pr.AttributionUS["other"]; total <= 0 || 2*other >= total {
		t.Fatalf("attribution leaves %d of %d µs to other (≥ 1/2): %v\n%s", other, total, pr.AttributionUS, pr.Trace)
	}

	// The same request, by ID, from the flight recorder — with the same tree.
	waitObs(t, "flight record", func() bool {
		r, err := http.Get(ts.URL + "/debug/requests/" + pr.RequestID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		return r.StatusCode == http.StatusOK
	})
	dresp, ddata := doJSON(t, http.MethodGet, ts.URL+"/debug/requests/"+pr.RequestID, nil)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("debug request: %d: %s", dresp.StatusCode, ddata)
	}
	var dbg struct {
		Request struct {
			ID       string           `json:"id"`
			Endpoint string           `json:"endpoint"`
			Status   int              `json:"status"`
			Profile  string           `json:"profile"`
			TotalUS  int64            `json:"total_us"`
			PhasesUS map[string]int64 `json:"phases_us"`
		} `json:"request"`
		Spans *struct {
			Name     string `json:"name"`
			Children []json.RawMessage
		} `json:"spans"`
		Tree string `json:"tree"`
	}
	if err := json.Unmarshal(ddata, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Request.ID != pr.RequestID || dbg.Request.Endpoint != "personalize" {
		t.Fatalf("debug record mismatch: %+v", dbg.Request)
	}
	if dbg.Request.Profile == "" || !strings.Contains(dbg.Request.Profile, "u1@") {
		t.Fatalf("profile identity missing: %q", dbg.Request.Profile)
	}
	if dbg.Tree != pr.Trace {
		t.Fatalf("span tree diverged:\nresponse:\n%s\ndebug:\n%s", pr.Trace, dbg.Tree)
	}
	if dbg.Spans == nil || dbg.Spans.Name != "personalize" {
		t.Fatalf("span JSON missing or misnamed: %+v", dbg.Spans)
	}
	if total, other := dbg.Request.TotalUS, dbg.Request.PhasesUS["other"]; total <= 0 || 2*other >= total {
		t.Fatalf("sealed attribution leaves %d of %d µs to other (≥ 1/2): %v", other, total, dbg.Request.PhasesUS)
	}
}

// TestAttributionCoverage: on warm cache misses of every pipeline endpoint,
// the median share of a request's wall time that no phase claims is at most
// a fifth. After 20 warm-up misses (query memo, estimate memo, indexes), 60
// untraced misses with distinct bounds are read back from the flight
// recorder.
func TestAttributionCoverage(t *testing.T) {
	s := newTestDaemon(t, Config{})
	if _, err := s.store.Put("alice", cqp.SyntheticProfile(60, 3).String()); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT title FROM MOVIE WHERE year >= 1950"
	bodies := map[string]string{
		"/personalize": `{"sql":%q,"profile_id":"alice","problem":{"number":2,"cmax_ms":%d}}`,
		"/execute":     `{"sql":%q,"profile_id":"alice","problem":{"number":2,"cmax_ms":%d},"limit":5}`,
		"/topk":        `{"sql":%q,"profile_id":"alice","cmax_ms":%d,"k":10}`,
		"/front":       `{"sql":%q,"profile_id":"alice","cmax_ms":%d,"max_points":8}`,
	}
	h := s.Handler()
	for path, body := range bodies {
		const warm, measured = 20, 60
		var shares []float64
		for i := 0; i < warm+measured; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(fmt.Sprintf(body, sql, 100000+i))))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d: %s", path, rec.Code, rec.Body)
			}
			snap, _, ok := s.flight.Get(rec.Header().Get("X-Request-ID"))
			if !ok || snap.Role == "hit" || snap.TotalUS <= 0 {
				t.Fatalf("%s: request %d is not a recorded miss: %+v", path, i, snap)
			}
			if i >= warm {
				shares = append(shares, float64(snap.PhasesUS["other"])/float64(snap.TotalUS))
			}
		}
		sort.Float64s(shares)
		if med := shares[len(shares)/2]; med > 0.20 {
			t.Errorf("%s: median unattributed share %.3f over %d warm misses, want ≤ 0.20", path, med, measured)
		}
	}
}

func TestCacheHitRoleAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())

	if resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("u1")); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold personalize: %d: %s", resp.StatusCode, data)
	}
	resp, data := doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("u1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm personalize: %d: %s", resp.StatusCode, data)
	}
	var pr personalizeResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Cached || !strings.Contains(pr.Trace, "cache_hit") {
		t.Fatalf("warm answer not a traced cache hit: cached=%v trace=%q", pr.Cached, pr.Trace)
	}
	id := resp.Header.Get("X-Request-ID")
	waitObs(t, "cache-hit flight record", func() bool {
		r, err := http.Get(ts.URL + "/debug/requests/" + id)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		return r.StatusCode == http.StatusOK
	})
	_, ddata := doJSON(t, http.MethodGet, ts.URL+"/debug/requests/"+id, nil)
	var dbg struct {
		Request struct {
			Role string `json:"role"`
		} `json:"request"`
		Tree string `json:"tree"`
	}
	if err := json.Unmarshal(ddata, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.Request.Role != "hit" {
		t.Fatalf("role = %q, want hit", dbg.Request.Role)
	}
	if dbg.Tree != pr.Trace {
		t.Fatalf("cache-hit tree diverged:\n%s\nvs\n%s", pr.Trace, dbg.Tree)
	}
}

func TestDebugRequestsFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())
	doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("u1"))
	// A missing profile is a 404 — retained by the errored tail.
	doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("ghost"))

	type listing struct {
		TotalRecorded uint64 `json:"total_recorded"`
		Returned      int    `json:"returned"`
		Requests      []struct {
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			Error    string `json:"error"`
		} `json:"requests"`
	}
	get := func(query string) listing {
		t.Helper()
		resp, data := doJSON(t, http.MethodGet, ts.URL+"/debug/requests"+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug requests%s: %d: %s", query, resp.StatusCode, data)
		}
		var l listing
		if err := json.Unmarshal(data, &l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	waitObs(t, "records in the recorder", func() bool { return get("").Returned >= 3 })

	l := get("?endpoint=personalize&status=404")
	if l.Returned < 1 {
		t.Fatalf("no 404 personalize records: %+v", l)
	}
	for _, r := range l.Requests {
		if r.Endpoint != "personalize" || r.Status != http.StatusNotFound {
			t.Fatalf("filter leaked %+v", r)
		}
		if !strings.Contains(r.Error, "ghost") {
			t.Fatalf("error message not retained: %q", r.Error)
		}
	}
	if l := get("?limit=1"); l.Returned != 1 {
		t.Fatalf("limit=1 returned %d", l.Returned)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/requests?status=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad status filter: %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/debug/requests/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ID: %d", resp.StatusCode)
	}
}

func TestSLOEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())
	for i := 0; i < 3; i++ {
		doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("u1"))
	}

	var report struct {
		WindowMS  int64 `json:"window_ms"`
		Endpoints map[string]struct {
			Count         int64   `json:"count"`
			P50MS         float64 `json:"p50_ms"`
			P99MS         float64 `json:"p99_ms"`
			ErrorRate     float64 `json:"error_rate"`
			CacheHitRatio float64 `json:"cache_hit_ratio"`
		} `json:"endpoints"`
	}
	waitObs(t, "SLO window population", func() bool {
		_, data := doJSON(t, http.MethodGet, ts.URL+"/slo", nil)
		if err := json.Unmarshal(data, &report); err != nil {
			return false
		}
		e, ok := report.Endpoints["personalize"]
		return ok && e.Count >= 3
	})
	e := report.Endpoints["personalize"]
	if report.WindowMS <= 0 {
		t.Fatalf("window_ms = %d", report.WindowMS)
	}
	if e.P50MS < 0 || e.P99MS < e.P50MS {
		t.Fatalf("insane quantiles: %+v", e)
	}
	if e.ErrorRate != 0 {
		t.Fatalf("error rate %g on healthy traffic", e.ErrorRate)
	}
	if e.CacheHitRatio <= 0 { // requests 2 and 3 were warm
		t.Fatalf("cache hit ratio %g after repeated identical requests", e.CacheHitRatio)
	}
}

func TestRequestAndSlowLogs(t *testing.T) {
	buf := &syncBuffer{}
	_, ts := newTestServer(t, Config{
		Logger:  slog.New(slog.NewJSONHandler(buf, nil)),
		SlowLog: time.Nanosecond, // every request is "slow": attribution for all
	})
	putProfile(t, ts.URL, "u1", testProfileText())

	body, _ := json.Marshal(personalizeBody("u1"))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/personalize", strings.NewReader(string(body)))
	req.Header.Set("X-Request-ID", "log-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	waitObs(t, "request log line", func() bool {
		s := buf.String()
		return strings.Contains(s, "log-test-1") && strings.Contains(s, "slow request")
	})
	logs := buf.String()
	for _, want := range []string{
		`"msg":"request"`, `"endpoint":"personalize"`, `"status":200`,
		`"msg":"slow request"`, `"phases_us"`, fmt.Sprintf("%q", "log-test-1"),
	} {
		if !strings.Contains(logs, want) {
			t.Fatalf("log output missing %s:\n%s", want, logs)
		}
	}
}

// TestPhaseHistograms checks the per-endpoint/per-phase latency metric the
// middleware feeds: after one cold request the pipeline phases must have
// observations under their own labels.
func TestPhaseHistograms(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())
	doJSON(t, http.MethodPost, ts.URL+"/personalize", personalizeBody("u1"))

	waitObs(t, "phase histogram observations", func() bool {
		h := s.Registry().Histogram("server_phase_ms", nil, "endpoint", "personalize", "phase", "search")
		return h.Count() > 0
	})
	for _, phase := range []string{"parse", "prefspace", "search", "construct"} {
		h := s.Registry().Histogram("server_phase_ms", nil, "endpoint", "personalize", "phase", phase)
		if h.Count() == 0 {
			t.Fatalf("no observations for phase %q", phase)
		}
	}
}

// TestUntracedRecordKeepsTree: a request that did not ask for its trace
// still leaves its span tree on its flight record. An untraced cold
// /execute is served by /debug/requests/{id} with spans rooted at execute:
// personalize (prefspace, search, construct) and execute (one subquery[i]
// per sub-query). An untraced cache hit ran no pipeline, and its record
// carries neither spans nor tree.
func TestUntracedRecordKeepsTree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "u1", testProfileText())
	body := personalizeBody("u1")
	delete(body, "trace")

	type span struct {
		Name     string  `json:"name"`
		Children []*span `json:"children"`
	}
	debug := func(id string) (spans *span, tree string, present bool) {
		t.Helper()
		var dbg struct {
			Spans *span   `json:"spans"`
			Tree  *string `json:"tree"`
		}
		waitObs(t, "flight record "+id, func() bool {
			r, err := http.Get(ts.URL + "/debug/requests/" + id)
			if err != nil {
				return false
			}
			defer r.Body.Close()
			return r.StatusCode == http.StatusOK
		})
		_, data := doJSON(t, http.MethodGet, ts.URL+"/debug/requests/"+id, nil)
		if err := json.Unmarshal(data, &dbg); err != nil {
			t.Fatal(err)
		}
		if dbg.Tree != nil {
			tree, present = *dbg.Tree, true
		}
		return dbg.Spans, tree, present
	}
	names := func(s *span) []string {
		var out []string
		for _, c := range s.Children {
			out = append(out, c.Name)
		}
		return out
	}
	child := func(s *span, name string) *span {
		for _, c := range s.Children {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("span %s has no %s child: %v", s.Name, name, names(s))
		return nil
	}

	resp, data := doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold execute: %d: %s", resp.StatusCode, data)
	}
	var er executeResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Cached || er.Trace != "" {
		t.Fatalf("cold untraced execute: cached=%v trace=%q", er.Cached, er.Trace)
	}
	root, tree, _ := debug(resp.Header.Get("X-Request-ID"))
	if root == nil || root.Name != "execute" {
		t.Fatalf("untraced cold execute: spans %+v, want a tree rooted at execute", root)
	}
	if !strings.HasPrefix(tree, "execute") {
		t.Fatalf("tree does not start at execute:\n%s", tree)
	}
	p := child(root, "personalize")
	for _, name := range []string{"prefspace", "search", "construct"} {
		child(p, name)
	}
	x := child(root, "execute")
	subs := 0
	for i, c := range x.Children {
		if c.Name != fmt.Sprintf("subquery[%d]", i) {
			t.Fatalf("execute child %d is %q: %v", i, c.Name, names(x))
		}
		subs++
	}
	if want := len(er.Preferences); subs == 0 || subs != want {
		t.Fatalf("execute span has %d subquery children, the answer integrated %d preferences:\n%s", subs, want, tree)
	}

	resp, data = doJSON(t, http.MethodPost, ts.URL+"/execute", body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"cached":true`) {
		t.Fatalf("warm execute: %d: %s", resp.StatusCode, data)
	}
	if spans, tree, present := debug(resp.Header.Get("X-Request-ID")); spans != nil || present {
		t.Fatalf("untraced hit kept a tree: spans %+v tree %q", spans, tree)
	}
}
