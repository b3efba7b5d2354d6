package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"testing"

	"cqp"
	"cqp/internal/fault"
)

// updateCacheScript regenerates testdata/cache_script.golden. The file is
// what the daemon answered, request by request, at the commit it was
// recorded on; it is only ever regenerated on the PARENT of a change to the
// result cache or the request driver — never on the change itself, which
// must pass it unmodified.
var updateCacheScript = flag.Bool("update-cache-script", false, "rewrite testdata/cache_script.golden from the current code")

const cacheScriptPath = "testdata/cache_script.golden"

// wallClock matches the response fields that carry a measured duration; the
// script zeroes them, everything else in a body is compared byte for byte.
var wallClock = regexp.MustCompile(`"(duration_us|exec_ms)":[-+.e0-9]+`)

// TestCacheScript replays one scripted session over HTTP, far below the
// cache's capacity, and compares every response — status, body, and with the
// body the cached and degraded marks — with the recording. The session walks
// each way an answer can be remembered or forgotten: fill, hit, PUT, miss,
// hit, DELETE and re-PUT, /refresh, no_cache, an inline profile, a batch with
// duplicates, a server.cache fault (a miss that fills nothing), and failed
// pipeline runs that take the stale rung where there is a last good answer
// and the heuristic rung where there is none.
func TestCacheScript(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var got bytes.Buffer
	step := func(name, method, path string, body any) {
		t.Helper()
		resp, raw := doJSON(t, method, ts.URL+path, body)
		raw = wallClock.ReplaceAll(bytes.TrimSpace(raw), []byte(`"$1":0`))
		fmt.Fprintf(&got, "== %s\n%d %s\n", name, resp.StatusCode, raw)
	}
	put := func(name, id string, seed int64) {
		t.Helper()
		pj := putProfile(t, ts.URL, id, cqp.SyntheticProfile(8, seed).String())
		fmt.Fprintf(&got, "== %s\nversion %d preferences %d\n", name, pj.Version, pj.Preferences)
	}
	const q2 = "SELECT title FROM MOVIE WHERE year >= 1990"
	body := func(sql string, mods map[string]any) map[string]any {
		b := map[string]any{"sql": sql, "profile_id": "alice", "problem": map[string]any{"number": 2, "cmax_ms": 10000}, "k": 4, "limit": 3}
		for k, v := range mods {
			b[k] = v
		}
		return b
	}
	post := func(name, path string) {
		t.Helper()
		step(name, http.MethodPost, path, body(testSQL, nil))
	}

	put("put alice", "alice", 2)
	post("fill", "/personalize")
	post("hit", "/personalize")
	put("put alice, other preferences", "alice", 3)
	post("miss after PUT", "/personalize")
	post("hit after PUT", "/personalize")

	step("delete alice", http.MethodDelete, "/profiles/alice", nil)
	post("no profile", "/personalize")
	put("put alice again", "alice", 2)
	post("miss after DELETE and PUT", "/personalize")
	post("hit after DELETE and PUT", "/personalize")

	step("refresh", http.MethodPost, "/refresh", nil)
	post("miss after refresh", "/personalize")
	post("hit after refresh", "/personalize")

	step("no_cache", http.MethodPost, "/personalize", body(testSQL, map[string]any{"no_cache": true}))
	post("hit beside no_cache", "/personalize")
	inline := body(testSQL, map[string]any{"profile": cqp.SyntheticProfile(8, 2).String()})
	delete(inline, "profile_id")
	step("inline profile", http.MethodPost, "/personalize", inline)
	step("inline profile again", http.MethodPost, "/personalize", inline)

	batch := batchBody(body(testSQL, nil), body(q2, nil), body(testSQL, nil), body(q2, map[string]any{"no_cache": true}))
	step("batch: a hit, a miss, a duplicate, a no_cache twin", http.MethodPost, "/personalize/batch", batch)
	step("batch again", http.MethodPost, "/personalize/batch", batch)

	post("execute fill", "/execute")
	post("execute hit", "/execute")

	// A faulted cache read is a miss and a faulted fill stores nothing: the
	// rotated key is still a miss once the fault is gone.
	put("put alice before the cache fault", "alice", 3)
	armPlan(t, "server.cache:err", 1)
	post("miss under server.cache:err", "/personalize")
	fault.Disarm()
	post("miss, nothing was filled", "/personalize")
	post("hit after the cache fault", "/personalize")

	// A hard-down executor: the stale rung answers the rotated /execute key
	// with the answer filled two versions ago. The "open breaker" steps are
	// named for the pipeline breaker the recording was made with; armed
	// faults now fail their primary runs the way it refused them: a
	// hard-down search takes the personalization's stale rung, and one
	// failed expansion sends a request with nothing stale to the heuristic.
	put("put alice before the executor fault", "alice", 2)
	armPlan(t, "exec.union:err", 1)
	post("execute takes the stale rung", "/execute")
	step("execute, nothing stale", http.MethodPost, "/execute", body(q2, nil))
	post("open breaker, stale rung", "/execute")
	armPlan(t, "search.expand:err", 1)
	post("open breaker, stale rung of the personalization", "/personalize")
	armPlan(t, "search.expand:err:x1", 1)
	step("open breaker, nothing stale: heuristic rung", http.MethodPost, "/personalize",
		body("SELECT title FROM MOVIE WHERE year >= 1980", nil))
	armPlan(t, "search.expand:err:x1", 1)
	step("open breaker, no_cache: heuristic rung", http.MethodPost, "/personalize",
		body(testSQL, map[string]any{"no_cache": true}))
	fault.Disarm()

	for _, name := range []string{"server_cache_hits", "server_cache_misses", "server_cache_stale_hits", "server_cache_evictions_total"} {
		fmt.Fprintf(&got, "== %s\n%d\n", name, s.reg.Counter(name).Value())
	}

	if *updateCacheScript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cacheScriptPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cacheScriptPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	var at []byte
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if bytes.HasPrefix(wl[i], []byte("== ")) {
			at = wl[i]
		}
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs from the recording (after %q)\n got: %s\nwant: %s", i+1, at, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, the recording has %d", len(gl), len(wl))
}
