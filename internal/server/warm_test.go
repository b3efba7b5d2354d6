package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cqp"
	"cqp/internal/fault"
	"cqp/internal/value"
)

// endpointOf finds a pipeline endpoint by name.
func endpointOf(t *testing.T, name string) *endpoint {
	t.Helper()
	for _, ep := range []*endpoint{personalizeEndpoint, executeEndpoint, frontEndpoint, topkEndpoint} {
		if ep.name == name {
			return ep
		}
	}
	t.Fatalf("no endpoint %q", name)
	return nil
}

// TestHitBytesIdentical: an untraced cache hit writes the entry's encoded
// body, and that body is exactly what the struct path would have written —
// for every endpoint, whatever happens between two hits — while everything
// that must turn a hit into a miss still does, and the request is counted,
// attributed and recorded as before.
func TestHitBytesIdentical(t *testing.T) {
	for _, cc := range contractCases[:4] {
		t.Run(cc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			putProfile(t, ts.URL, "alice", testProfileText())
			ep := endpointOf(t, cc.name)
			body := map[string]any{"sql": testSQL, "profile_id": "alice"}
			for k, v := range cc.params {
				body[k] = v
			}
			post := func(step, query string, cached bool) (*http.Response, string) {
				t.Helper()
				resp, raw := doJSON(t, http.MethodPost, ts.URL+cc.path+query, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: %d: %s", step, resp.StatusCode, raw)
				}
				if want := fmt.Sprintf(`"cached":%v`, cached); !strings.Contains(string(raw), want) {
					t.Fatalf("%s: no %s in %s", step, want, raw)
				}
				return resp, string(raw)
			}
			// The one live entry of the result cache.
			entry := func() *cacheEntry {
				t.Helper()
				s.cache.mu.Lock()
				defer s.cache.mu.Unlock()
				if n := s.cache.ll.Len(); n != 1 {
					t.Fatalf("%d cache entries, want 1", n)
				}
				return s.cache.ll.Front().Value.(*cacheEntry)
			}
			hits, misses := s.reg.Counter("server_cache_hits"), s.reg.Counter("server_cache_misses")

			missResp, miss := post("miss", "", false)
			e := entry()
			if e.body.Load() != nil {
				t.Fatal("the fill encoded the entry: a miss paid for a hit that may never come")
			}
			hitResp, hit := post("first hit", "", true)
			if e.body.Load() == nil {
				t.Fatal("the first untraced hit left the entry without bytes")
			}
			_, again := post("second hit", "", true)
			if hit != again {
				t.Errorf("two hits differ:\n%s\n%s", hit, again)
			}
			direct := httptest.NewRecorder()
			writeJSON(direct, http.StatusOK, ep.stamp(e.val, true, ""))
			if hit != direct.Body.String() {
				t.Errorf("hit body is not writeJSON(stamp(value)):\n%s\n%s", hit, direct.Body)
			}
			if want := strings.Replace(miss, `"cached":false`, `"cached":true`, 1); hit != want {
				t.Errorf("hit body is not the miss body marked cached:\n%s\n%s", hit, want)
			}
			if got, want := hitResp.Header.Get("Content-Type"), missResp.Header.Get("Content-Type"); got != want || got != direct.Header().Get("Content-Type") {
				t.Errorf("hit Content-Type %q, miss %q", got, want)
			}
			if hits.Value() != 2 || misses.Value() != 1 {
				t.Errorf("server_cache_hits %d, server_cache_misses %d after miss, hit, hit", hits.Value(), misses.Value())
			}

			// The flight record of a hit served from bytes.
			id := hitResp.Header.Get("X-Request-ID")
			waitObs(t, "flight record "+id, func() bool { _, _, ok := s.flight.Get(id); return ok })
			snap, _, _ := s.flight.Get(id)
			if snap.Role != "hit" || snap.Rung != "" || snap.Status != http.StatusOK || snap.Profile == "" {
				t.Errorf("flight record of a hit: %+v", snap)
			}
			for _, phase := range []string{"parse", "cache", "encode"} {
				if _, ok := snap.PhasesUS[phase]; !ok {
					t.Errorf("hit has no %s phase: %v", phase, snap.PhasesUS)
				}
				if s.reg.Histogram("server_phase_ms", nil, "endpoint", ep.name, "phase", phase).Count() == 0 {
					t.Errorf("no server_phase_ms observation for %s", phase)
				}
			}

			// A traced hit is the request's own and leaves the bytes alone.
			for _, traced := range []func() string{
				func() string { _, raw := post("?trace=1 hit", "?trace=1", true); return raw },
				func() string {
					body["trace"] = true
					defer delete(body, "trace")
					_, raw := post("trace:true hit", "", true)
					return raw
				},
			} {
				var env envelope
				raw := traced()
				if err := json.Unmarshal([]byte(raw), &env); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(env.Trace, "cache_hit") || env.RequestID == "" || env.AttributionUS["total"] <= 0 {
					t.Errorf("traced hit carries no trace payload: %s", raw)
				}
				if _, next := post("hit after a traced hit", "", true); next != hit {
					t.Errorf("a traced hit changed the untraced body:\n%s\n%s", next, hit)
				}
			}

			// A batch item that hits takes the struct path too.
			if ep == personalizeEndpoint || ep == executeEndpoint {
				resp, raw := doJSON(t, http.MethodPost, ts.URL+"/personalize/batch",
					map[string]any{"items": []any{body}, "execute": ep == executeEndpoint})
				var br struct{ Results []personalizeResponse }
				if err := json.Unmarshal(raw, &br); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("batch: %d %v: %s", resp.StatusCode, err, raw)
				}
				var single personalizeResponse
				if err := json.Unmarshal([]byte(hit), &single); err != nil {
					t.Fatal(err)
				}
				if !br.Results[0].Cached || !reflect.DeepEqual(br.Results[0], single) {
					t.Errorf("batch item over a warm key is not the singleton's hit:\n%s\n%s", raw, hit)
				}
				if _, next := post("hit after a batch hit", "", true); next != hit {
					t.Errorf("a batch hit changed the untraced body:\n%s\n%s", next, hit)
				}
			}

			// What must turn the next request into a miss still does.
			putProfile(t, ts.URL, "alice", testProfileText())
			post("after a profile PUT", "", false)
			post("warm again", "", true)
			if resp, raw := doJSON(t, http.MethodPost, ts.URL+"/refresh", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("refresh: %d: %s", resp.StatusCode, raw)
			}
			post("after a refresh", "", false)
			post("warm again", "", true)
			armPlan(t, "server.cache:err", 1)
			post("under server.cache:err", "", false)
			fault.Disarm()
			post("disarmed", "", true)
		})
	}
}

// TestHitAllocs is the allocation tripwire of the warm path, measured as
// BenchmarkServePersonalizeCacheHit measures it (httptest request and
// recorder included): 101 before a hit was served from bytes, 49 now (51
// under the race detector). The bounds sit about 2 % above the counts.
func TestHitAllocs(t *testing.T) {
	s := newTestDaemon(t, Config{})
	if _, err := s.store.Put("alice", testProfileText()); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"sql": testSQL, "profile_id": "alice",
		"problem": map[string]any{"number": 2, "cmax_ms": 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%d: %s", rec.Code, rec.Body)
		}
	}
	serve() // miss
	serve() // the hit that encodes
	n, bound := testing.AllocsPerRun(200, serve), 50.0
	if raceEnabled {
		bound = 52
	}
	t.Logf("a warm POST /personalize allocates %.0f times", n)
	if n > bound {
		t.Errorf("a warm POST /personalize allocates %.0f times, want ≤ %.0f", n, bound)
	}
	if hits := s.reg.Counter("server_cache_hits").Value(); hits < 200 {
		t.Errorf("only %d cache hits: the measured requests were not warm", hits)
	}
}

// TestMissAllocs bounds the allocations of the cold path the same way: a
// /personalize miss at K = 20 — a bound no earlier request carried, so the
// whole pipeline runs — for a stored 64-atom profile, through the handler.
// What is left is net/http, the decode, the response's encode and the
// pipeline's own results; nothing is cloned or rendered twice on the way.
// It makes 103 (109 under the race detector); the bounds sit about 2 % above
// the counts.
func TestMissAllocs(t *testing.T) {
	s := newTestDaemon(t, Config{})
	if _, err := s.store.Put("alice", cqp.SyntheticProfile(60, 3).String()); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	bodies := make([][]byte, runs+2)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(
			`{"sql":"SELECT title FROM MOVIE WHERE year >= 1950","profile_id":"alice","problem":{"number":2,"cmax_ms":%d}}`, 100000+i))
	}
	h := s.Handler()
	next, k := 0, 0
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalize", bytes.NewReader(bodies[next])))
		next++
		if rec.Code != http.StatusOK {
			t.Fatalf("%d: %s", rec.Code, rec.Body)
		}
		k = bytes.Count(rec.Body.Bytes(), []byte("UNION ALL")) + 1
	}
	serve() // warms the query memo and the estimate memo
	misses := s.reg.Counter("server_cache_misses").Value()
	n, bound := testing.AllocsPerRun(runs, serve), 105.0
	if raceEnabled {
		bound = 111
	}
	t.Logf("a cold POST /personalize at K = %d allocates %.0f times", k, n)
	if n > bound {
		t.Errorf("a cold POST /personalize at K = %d allocates %.0f times, want ≤ %.0f", k, n, bound)
	}
	if k != 20 {
		t.Errorf("the measured answers integrate %d preferences, want 20", k)
	}
	if got := s.reg.Counter("server_cache_misses").Value() - misses; got < runs {
		t.Errorf("only %d cache misses: the measured requests were not cold", got)
	}
}

// TestExecuteAllocs bounds a cold /execute and a cold /topk the way
// TestMissAllocs bounds /personalize: bounds no earlier request carried, so
// each request runs the whole pipeline and executes its union — twenty
// sub-queries, one per preference of K = 20 — through the handler. What
// executing adds is the plan, built once from Q and the preferences, its
// one pass and the execute span: no sub-query is built as a query. They
// made 452 and 470 on the one-pass plan; the bounds sit 4 and 6 above.
//
// An execution is cold when a movie was inserted since the last one: the
// base the store cached for Q is stale, so the execution fills it again and
// builds all twenty bitmaps (444 and 456 allocations). Warm, with B and the
// bitmaps cached, the same requests make 151 and 163, which bound them.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the executor's paths")
	}
	s := newTestDaemon(t, Config{})
	if _, err := s.store.Put("alice", cqp.SyntheticProfile(60, 3).String()); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	movies := s.db.MustTable("MOVIE")
	for _, c := range []struct {
		path, body string
		cold, warm float64
	}{
		{"/execute", `{"sql":"SELECT title FROM MOVIE WHERE year >= 1950","profile_id":"alice","limit":5,"problem":{"number":2,"cmax_ms":%d}}`, 456, 151},
		{"/topk", `{"sql":"SELECT title FROM MOVIE WHERE year >= 1950","profile_id":"alice","k":5,"max_k":20,"cmax_ms":%d}`, 476, 163},
	} {
		bodies := make([][]byte, 2*runs+1)
		for i := range bodies {
			bodies[i] = []byte(fmt.Sprintf(c.body, 100000+i))
		}
		h := s.Handler()
		next := 0
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(bodies[next])))
			next++
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %d: %s", c.path, rec.Code, rec.Body)
			}
		}
		serve() // warms the query memo and the estimate memo
		unions, subs := s.reg.Counter("exec_unions_total").Value(), s.reg.Counter("exec_subqueries_total").Value()
		fills := s.reg.Counter("exec_base_cache_misses_total").Value()
		// measure is the mean allocations of runs requests, each after a
		// movie is inserted if cold.
		measure := func(cold bool) float64 {
			var total uint64
			for i := 0; i < runs; i++ {
				if cold {
					movies.MustInsert(value.Int(int64(1_000_000+movies.RowCount())), value.Str("Unseen"), value.Int(1900), value.Int(1), value.Int(-1))
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				serve()
				runtime.ReadMemStats(&after)
				total += after.Mallocs - before.Mallocs
			}
			return float64(total / runs)
		}
		cold, warm := measure(true), measure(false)
		unions, subs = s.reg.Counter("exec_unions_total").Value()-unions, s.reg.Counter("exec_subqueries_total").Value()-subs
		fills = s.reg.Counter("exec_base_cache_misses_total").Value() - fills
		t.Logf("a cold POST %s allocates %.0f times, a warm one %.0f", c.path, cold, warm)
		if unions != 2*runs || subs != 20*unions {
			t.Errorf("%s: %d unions of %d sub-queries in all, want %d of 20 each", c.path, unions, subs, 2*runs)
		}
		if fills != runs {
			t.Errorf("%s: %d of %d executions filled their base, want the %d cold ones", c.path, fills, 2*runs, runs)
		}
		if cold > c.cold || warm > c.warm {
			t.Errorf("a POST %s at 20 sub-queries allocates %.0f times cold and %.0f warm, want ≤ %.0f and %.0f", c.path, cold, warm, c.cold, c.warm)
		}
	}
}

// TestParsedQueryShared: the query memo hands one parsed *Query to every
// request that sends the same text, concurrently — nothing below prepare may
// write to it. Run under -race.
func TestParsedQueryShared(t *testing.T) {
	const sql = "SELECT title FROM MOVIE WHERE year >= 1990"
	const users = 8
	paths := []string{"/personalize", "/execute", "/front", "/topk", "/personalize/batch"}
	request := func(path string, user int) map[string]any {
		id := fmt.Sprintf("u%d", user)
		switch path {
		case "/front":
			return map[string]any{"sql": sql, "profile_id": id, "no_cache": true, "cmax_ms": 10000, "max_points": 4}
		case "/topk":
			return map[string]any{"sql": sql, "profile_id": id, "no_cache": true, "cmax_ms": 10000, "k": 3}
		case "/personalize/batch":
			other := fmt.Sprintf("u%d", (user+1)%users)
			return batchBody(
				map[string]any{"sql": sql, "profile_id": id, "no_cache": true, "problem": solveParams["problem"]},
				map[string]any{"sql": sql, "profile_id": other, "no_cache": true, "problem": solveParams["problem"]})
		}
		return map[string]any{"sql": sql, "profile_id": id, "no_cache": true, "problem": solveParams["problem"], "limit": 5}
	}
	// stable strips what differs between two runs of one request: timings.
	stable := func(t *testing.T, raw []byte) any {
		t.Helper()
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Errorf("%v: %s", err, raw)
		}
		var strip func(v any)
		strip = func(v any) {
			switch v := v.(type) {
			case map[string]any:
				delete(v, "duration_us")
				delete(v, "exec_ms")
				for _, c := range v {
					strip(c)
				}
			case []any:
				for _, c := range v {
					strip(c)
				}
			}
		}
		strip(v)
		return v
	}
	serve := func(t *testing.T, s *Server, path string, user int) any {
		t.Helper()
		body, err := json.Marshal(request(path, user))
		if err != nil {
			t.Error(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s user %d: %d: %s", path, user, rec.Code, rec.Body)
		}
		return stable(t, rec.Body.Bytes())
	}
	newServer := func(cfg Config) *Server {
		s := newTestDaemon(t, cfg)
		for u := 0; u < users; u++ {
			if _, err := s.store.Put(fmt.Sprintf("u%d", u), cqp.SyntheticProfile(40, int64(2+u)).String()); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	shared, fresh := newServer(Config{}), newServer(Config{})
	got := make([][]any, users)
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		got[u] = make([]any, len(paths))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, path := range paths {
				got[u][i] = serve(t, shared, path, u)
			}
		}()
	}
	wg.Wait()
	for u := 0; u < users; u++ {
		for i, path := range paths {
			if want := serve(t, fresh, path, u); !reflect.DeepEqual(got[u][i], want) {
				t.Errorf("%s user %d: the shared query answered\n%v\na fresh server\n%v", path, u, got[u][i], want)
			}
		}
	}
	want, err := cqp.ParseQuery(shared.db.Schema(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if pq := shared.queries.m[sql]; !reflect.DeepEqual(pq.q, want) || pq.sql != want.SQL() {
		t.Errorf("the memoized query changed under its readers: %+v (rendering %q), a fresh parse is %+v", pq.q, pq.sql, want)
	}
	parses := int64(users * (len(paths) + 1)) // a batch prepares its two items
	if h, m := shared.queries.hits.Value(), shared.queries.misses.Value(); m < 1 || m > users || h+m != parses {
		t.Errorf("server_query_memo: %d hits, %d misses over %d parses of one text", h, m, parses)
	}

	t.Run("bounds", func(t *testing.T) {
		s := newServer(Config{CacheEntries: 4})
		schema := s.db.Schema()
		for i := 0; i < 3; i++ {
			if _, err := s.queries.parse(schema, "SELECT nothing FROM NOWHERE"); err == nil {
				t.Fatal("a text that does not parse parsed")
			}
		}
		if _, err := s.queries.parse(schema, "SELECT title FROM MOVIE WHERE title = '"+strings.Repeat("x", maxMemoSQL)+"'"); err != nil {
			t.Fatal(err)
		}
		if n := len(s.queries.m); n != 0 {
			t.Fatalf("%d texts stored after a failing and an oversized one", n)
		}
		for i := 0; i < 5; i++ {
			if _, err := s.queries.parse(schema, fmt.Sprintf("SELECT title FROM MOVIE WHERE year >= %d", 1990+i)); err != nil {
				t.Fatal(err)
			}
			if n := len(s.queries.m); n > 4 {
				t.Fatalf("%d texts stored, CacheEntries is 4", n)
			}
		}
		if n := len(s.queries.m); n == 0 {
			t.Fatal("the memo stores nothing")
		}
	})

	// The result cache is keyed by rendering, not text: two spellings of one
	// query in one clause order are two memo entries and one cache entry.
	t.Run("spellings", func(t *testing.T) {
		s := newServer(Config{})
		for i, text := range []string{
			"SELECT title FROM MOVIE WHERE year >= 1990 AND duration < 120",
			"select  title from MOVIE where year>=1990 and duration < 120",
		} {
			body, _ := json.Marshal(map[string]any{"sql": text, "profile_id": "u0", "problem": solveParams["problem"]})
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/personalize", bytes.NewReader(body)))
			if want := fmt.Sprintf(`"cached":%v`, i == 1); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
				t.Fatalf("spelling %d: %d, want %s: %s", i, rec.Code, want, rec.Body)
			}
		}
		if len(s.queries.m) != 2 || s.cache.Len() != 1 {
			t.Errorf("%d memo entries and %d cache entries, want 2 and 1", len(s.queries.m), s.cache.Len())
		}
	})
}

// TestDistinctKeyedApart: a query and its DISTINCT form share a fingerprint,
// but for a profile with no preference on the query the answer is the query
// itself, so they must not share a cache entry: each is served its own SQL,
// fresh, on both /personalize and /execute.
func TestDistinctKeyedApart(t *testing.T) {
	s := newTestDaemon(t, Config{})
	if _, err := s.store.Put("alice", "doi(DIRECTOR.name = 'nobody') = 0.5\n"); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, path := range []string{"/personalize", "/execute"} {
		for _, sql := range []string{"SELECT MOVIE.year FROM MOVIE", "SELECT DISTINCT MOVIE.year FROM MOVIE"} {
			body, err := json.Marshal(map[string]any{"sql": sql, "profile_id": "alice",
				"problem": map[string]any{"number": 2, "cmax_ms": 100000}})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			var got struct {
				SQL    string `json:"sql"`
				Cached bool   `json:"cached"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("%s %q: %d %s", path, sql, rec.Code, rec.Body)
			}
			if got.SQL != sql || got.Cached {
				t.Errorf("%s %q: served %q, cached %v; want its own text, fresh", path, sql, got.SQL, got.Cached)
			}
		}
	}
}

// TestFingerprintPairsServed replays FuzzFingerprint's seed pairs through one
// daemon: each pair's first text, then its second, on /personalize and
// /execute for a profile of the pair's own. The second body must equal the
// fresh answer to its own text, and come from the cache exactly when the two
// texts render alike: of the pairs that share a fingerprint, a change of case,
// spacing or qualification does; reordered clauses and DISTINCT do not.
func TestFingerprintPairsServed(t *testing.T) {
	dir := filepath.Join("..", "sqlparse", "testdata", "fuzz", "FuzzFingerprint")
	seeds, err := os.ReadDir(dir)
	if err != nil || len(seeds) == 0 {
		t.Fatalf("%d seeds: %v", len(seeds), err)
	}
	alike := map[string]bool{"bare-and-qualified": true, "lower-case-and-spacing": true}
	s := newTestDaemon(t, Config{})
	h := s.Handler()
	o := &freshOracle{t: t, s: s, byGen: make(map[uint64]*Server)}
	gen := s.p.Generation()
	for _, seed := range seeds {
		pair := seedPair(t, filepath.Join(dir, seed.Name()))
		id, text := "u-"+seed.Name(), cqp.SyntheticProfile(12, 3).String()
		sp, err := s.store.Put(id, text)
		if err != nil {
			t.Fatal(err)
		}
		o.puts = append(o.puts, servedPut{id: id, text: text, version: sp.Version})
		for _, ep := range []*endpoint{personalizeEndpoint, executeEndpoint} {
			path := "/" + ep.name
			for i, sql := range pair {
				req := map[string]any{"sql": sql, "profile_id": id, "k": 6,
					"problem": map[string]any{"number": 2, "cmax_ms": 10000}}
				if ep == executeEndpoint {
					req["limit"] = 3
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					// A union plan refuses a LIMIT: the fresh run must refuse alike.
					_, err := o.fresh(ep, body, o.puts[len(o.puts)-1], gen, "", nil)
					if rec.Code != http.StatusBadRequest || err == nil || !strings.Contains(rec.Body.String(), err.Error()) {
						t.Errorf("%s %s %q: %d %s; the fresh run: %v", seed.Name(), path, sql, rec.Code, rec.Body, err)
					} else if i == 1 {
						o.checks++
					}
					continue
				}
				var got struct {
					Cached bool `json:"cached"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s %s %q: %v: %s", seed.Name(), path, sql, err, rec.Body)
				}
				if i == 0 {
					continue
				}
				if got.Cached != alike[seed.Name()] {
					t.Errorf("%s %s: %q after %q answered cached %v, want %v",
						seed.Name(), path, sql, pair[0], got.Cached, alike[seed.Name()])
				}
				c := servedCall{path: path, sent: 1, received: 1, gen: [2]uint64{gen, gen}}
				o.check(c, ep, id, body, rec.Body.Bytes(), nil)
			}
		}
	}
	if want := 2 * len(seeds); o.checks != want {
		t.Errorf("%d second answers equal their fresh ones, want %d", o.checks, want)
	}
}

// seedPair reads the two strings of a two-string fuzz seed file.
func seedPair(t *testing.T, path string) [2]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var pair [2]string
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-string seed: %q", path, raw)
	}
	for i, l := range lines[1:] {
		quoted, ok := strings.CutPrefix(l, "string(")
		if pair[i], err = strconv.Unquote(strings.TrimSuffix(quoted, ")")); !ok || err != nil {
			t.Fatalf("%s: line %d is not a string: %q", path, i+2, l)
		}
	}
	return pair
}
