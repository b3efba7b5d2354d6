package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"cqp"
)

// servedPut is one acked profile PUT: the text the store holds at version,
// and the ticks at which the PUT was sent and its ack came back.
type servedPut struct {
	id, text    string
	version     uint64
	sent, acked int64
}

// servedCall is one pipeline request and what the daemon answered, with the
// ticks and the statistics generations read before it was sent and after
// its response came back.
type servedCall struct {
	path     string
	body     []byte
	id       string
	code     int
	resp     []byte
	sent     int64
	received int64
	gen      [2]uint64
}

// TestServedEqualsFresh holds every layer that remembers or shares an answer
// — the result cache and its stale index, the query memo, the estimate memo,
// the singleflight table, batch identity dedup and the batch's scan share —
// to one oracle. Seeded clients interleave profile PUTs and DELETEs,
// /refresh and the five pipeline endpoints against one daemon. Afterwards
// every 200 body must equal what the library answers for the same request
// from scratch: the SQL parsed again, the profile parsed from the text the
// store held, a personalizer with no estimate memo and no cache, at the
// profile version the response names and at a statistics generation read
// between the request's send and its response. Wall-clock fields are
// ignored, as in TestCacheScript, and so is the cached mark. A body without
// a profile version (/front, /topk) may stand for any version that was
// current while the request was in flight, and a degraded body must name its
// rung: a stale one may be any earlier fresh answer for the request.
func TestServedEqualsFresh(t *testing.T) { servedEqualsFresh(t) }

// TestServedEqualsFreshCacheFaults runs the same interleavings with the
// server.cache fault point failing half its touches: a failed read is a miss
// and a failed fill is skipped, so every 200 body must still equal its fresh
// answer. The armed plan is process-wide; no test of this package runs in
// parallel, and armPlan disarms it when the test ends.
func TestServedEqualsFreshCacheFaults(t *testing.T) {
	armPlan(t, "server.cache:err:0.5", 7)
	s := servedEqualsFresh(t)
	if n := s.reg.Counter("server_cache_faults_total").Value(); n == 0 {
		t.Error("the armed server.cache fault never fired")
	}
}

// servedEqualsFresh drives the interleavings against a new daemon, checks
// every 200 body against the fresh oracle and returns the daemon.
func servedEqualsFresh(t *testing.T) *Server {
	s, ts := newTestServer(t, Config{})
	ids := []string{"u0", "u1", "u2"}
	sqls := []string{
		testSQL,
		"SELECT title FROM MOVIE WHERE year >= 1990",
		"SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did",
		// The same query with its relations and its join written the other
		// way round: it renders, and so personalizes, to other bytes.
		"SELECT title, name FROM DIRECTOR, MOVIE WHERE DIRECTOR.did = MOVIE.did",
	}

	var tick atomic.Int64
	var mu sync.Mutex
	var puts []servedPut
	var calls []servedCall
	send := func(method, path string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		return resp.StatusCode, raw, err
	}
	put := func(id, text string) error {
		sent := tick.Add(1)
		code, raw, err := send(http.MethodPut, "/profiles/"+id, []byte(text))
		acked := tick.Add(1)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("PUT %s: %d %s %v", id, code, raw, err)
		}
		var pj profileJSON
		if err := json.Unmarshal(raw, &pj); err != nil {
			return err
		}
		mu.Lock()
		puts = append(puts, servedPut{id: id, text: text, version: pj.Version, sent: sent, acked: acked})
		mu.Unlock()
		return nil
	}
	profileText := func(rng *rand.Rand) string {
		return cqp.SyntheticProfile(6+rng.Intn(6), rng.Int63n(3)).String()
	}
	item := func(rng *rand.Rand, id string) map[string]any {
		return map[string]any{
			"sql":        sqls[rng.Intn(len(sqls))],
			"profile_id": id,
			"problem":    map[string]any{"number": 2, "cmax_ms": []float64{150, 10000}[rng.Intn(2)]},
			"k":          4 + 2*rng.Intn(2),
			"no_cache":   rng.Intn(10) == 0,
		}
	}
	// request draws one pipeline request for the profile id.
	request := func(rng *rand.Rand, id string) (string, map[string]any) {
		switch rng.Intn(6) {
		case 0, 1:
			return "/personalize", item(rng, id)
		case 2:
			b := item(rng, id)
			b["limit"] = 3
			return "/execute", b
		case 3:
			b := item(rng, id)
			delete(b, "problem")
			b["cmax_ms"], b["k"], b["max_k"] = 400, 5, 6
			return "/topk", b
		case 4:
			b := item(rng, id)
			delete(b, "problem")
			b["cmax_ms"], b["max_points"] = 10000, 4
			return "/front", b
		default:
			items := []map[string]any{item(rng, id), item(rng, ids[rng.Intn(len(ids))])}
			items = append(items, items[rng.Intn(2)]) // a duplicate
			return "/personalize/batch", map[string]any{"items": items, "execute": rng.Intn(2) == 0, "limit": 3}
		}
	}

	first := rand.New(rand.NewSource(1))
	for _, id := range ids {
		if err := put(id, profileText(first)); err != nil {
			t.Fatal(err)
		}
	}
	const clients, ops = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			var last servedCall
			for i := 0; i < ops; i++ {
				id := ids[rng.Intn(len(ids))]
				var err error
				switch op := rng.Intn(20); {
				case op <= 1:
					err = put(id, profileText(rng))
				case op == 2:
					_, _, err = send(http.MethodDelete, "/profiles/"+id, nil)
				case op == 3:
					_, _, err = send(http.MethodPost, "/refresh", nil)
				default:
					// Every third request repeats the client's last one, which
					// the cache may then answer.
					if last.path == "" || rng.Intn(3) > 0 {
						path, body := request(rng, id)
						last.path, last.id = path, id
						last.body, _ = json.Marshal(body)
					}
					sc := servedCall{path: last.path, body: last.body, id: last.id, gen: [2]uint64{s.p.Generation()}, sent: tick.Add(1)}
					sc.code, sc.resp, err = send(http.MethodPost, sc.path, sc.body)
					sc.received, sc.gen[1] = tick.Add(1), s.p.Generation()
					mu.Lock()
					calls = append(calls, sc)
					mu.Unlock()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(c) + 2)))
	}
	wg.Wait()
	if t.Failed() {
		return s
	}

	o := &freshOracle{t: t, s: s, puts: puts, byGen: make(map[uint64]*Server)}
	answered := make(map[string]int)
	for _, c := range calls {
		if c.code != http.StatusOK {
			continue
		}
		answered[c.path]++
		if c.path == "/personalize/batch" {
			o.checkBatch(c)
			continue
		}
		ep := map[string]*endpoint{"/personalize": personalizeEndpoint, "/execute": executeEndpoint,
			"/topk": topkEndpoint, "/front": frontEndpoint}[c.path]
		o.check(c, ep, c.id, c.body, c.resp, nil)
	}
	for _, path := range []string{"/personalize", "/execute", "/topk", "/front", "/personalize/batch"} {
		if answered[path] == 0 {
			t.Errorf("no 200 from %s to check: %v", path, answered)
		}
	}
	if hits := s.reg.Counter("server_cache_hits").Value(); hits == 0 {
		t.Error("no request was answered from the result cache")
	}
	t.Logf("%d bodies equal their fresh answers; 200s per endpoint: %v; %d cache hits",
		o.checks, answered, s.reg.Counter("server_cache_hits").Value())
	return s
}

// freshOracle computes the library's fresh answers: one memo-less
// personalizer per statistics generation, built over the daemon's tables
// and refreshed up to that generation, so nothing is shared with the daemon
// but the tables.
type freshOracle struct {
	t      *testing.T
	s      *Server
	puts   []servedPut
	byGen  map[uint64]*Server
	checks int
}

// at returns a server holding nothing but a fresh personalizer at
// generation gen: what a request's solve reads.
func (o *freshOracle) at(gen uint64) *Server {
	if srv, ok := o.byGen[gen]; ok {
		return srv
	}
	p, err := cqp.NewPersonalizerWith(o.s.db)
	if err != nil {
		o.t.Fatal(err)
	}
	p.SetEstimateMemo(false)
	for p.Generation() < gen {
		if err := p.Refresh(); err != nil {
			o.t.Fatal(err)
		}
	}
	srv := &Server{cfg: o.s.cfg, db: o.s.db, p: p}
	o.byGen[gen] = srv
	return srv
}

// versions lists the PUTs of id a response may stand for: with version > 0,
// that PUT alone; otherwise each PUT sent before the response came back and
// not superseded by a PUT acked before the request was sent; with stale,
// every PUT sent before the response came back.
func (o *freshOracle) versions(c servedCall, id string, version uint64, stale bool) []servedPut {
	var out []servedPut
	for _, p := range o.puts {
		if p.id != id || p.sent > c.received || (version > 0 && p.version != version) {
			continue
		}
		superseded := false
		for _, q := range o.puts {
			superseded = superseded || (q.id == id && q.version > p.version && q.acked < c.sent)
		}
		if stale || !superseded {
			out = append(out, p)
		}
	}
	return out
}

// fresh is the body the library answers for the request body at the PUT and
// generation, at the rung, stamped as the daemon stamps it; prep adjusts the
// decoded request as a batch does its items.
func (o *freshOracle) fresh(ep *endpoint, body []byte, p servedPut, gen uint64, rung string, prep func(*personalizeRequest)) (response, error) {
	req := ep.newRequest()
	if err := json.Unmarshal(body, req); err != nil {
		return nil, err
	}
	if prep != nil {
		prep(req.(*personalizeRequest))
	}
	srv := o.at(gen)
	if err := req.check(srv); err != nil {
		return nil, err
	}
	q, err := cqp.ParseQuery(o.s.db.Schema(), req.base().SQL)
	if err != nil {
		return nil, err
	}
	prof, err := cqp.ParseProfile(p.text)
	if err != nil {
		return nil, err
	}
	solveRung := rung
	if rung == "stale" {
		solveRung = ""
	}
	out, err := req.solve(context.Background(), srv, q, prof, p.version, solveRung)
	if err != nil {
		return nil, err
	}
	return ep.stamp(out, false, rung), nil
}

// normalized is a body without its wall-clock fields and cached mark.
func normalized(b []byte) []byte {
	b = wallClock.ReplaceAll(bytes.TrimSpace(b), []byte(`"$1":0`))
	return bytes.ReplaceAll(b, []byte(`"cached":true`), []byte(`"cached":false`))
}

// check holds one served body to the fresh answers it may stand for; wrap
// shapes a fresh response as the served body does (nil: as is).
func (o *freshOracle) check(c servedCall, ep *endpoint, id string, body, served []byte, wrap func(response) any) {
	o.t.Helper()
	var mark struct {
		Degraded       string `json:"degraded"`
		ProfileVersion uint64 `json:"profile_version"`
	}
	if err := json.Unmarshal(served, &mark); err != nil {
		o.t.Fatalf("%s: %v: %s", c.path, err, served)
	}
	if !degradedMarkers[mark.Degraded] {
		o.t.Errorf("%s: unknown rung %q: %s", c.path, mark.Degraded, served)
		return
	}
	stale := mark.Degraded == "stale"
	gens := c.gen
	if stale {
		gens[0] = 1
	}
	var prep func(*personalizeRequest)
	if wrap != nil {
		var batch batchRequest
		_ = json.Unmarshal(c.body, &batch)
		prep = func(r *personalizeRequest) { r.execute, r.Limit = batch.Execute, batch.Limit }
	}
	got := normalized(served)
	var want []byte
	for _, p := range o.versions(c, id, mark.ProfileVersion, stale) {
		for gen := gens[0]; gen <= gens[1]; gen++ {
			resp, err := o.fresh(ep, body, p, gen, mark.Degraded, prep)
			if err != nil {
				o.t.Errorf("%s %s: the fresh run failed: %v", c.path, body, err)
				return
			}
			var v any = resp
			if wrap != nil {
				v = wrap(resp)
			}
			var buf bytes.Buffer
			if err := encodeJSON(&buf, v); err != nil {
				o.t.Fatal(err)
			}
			if want = normalized(buf.Bytes()); bytes.Equal(got, want) {
				o.checks++
				return
			}
		}
	}
	o.t.Errorf("%s %s (generations %d–%d): served\n%s\nno fresh answer equals it; the last tried\n%s",
		c.path, body, gens[0], gens[1], got, want)
}

// checkBatch holds each answered item of a batch to its fresh answer, shaped
// as the batch shapes an item.
func (o *freshOracle) checkBatch(c servedCall) {
	o.t.Helper()
	var req struct {
		Items   []json.RawMessage `json:"items"`
		Execute bool              `json:"execute"`
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(c.body, &req); err != nil {
		o.t.Fatal(err)
	}
	if err := json.Unmarshal(c.resp, &resp); err != nil || len(resp.Results) != len(req.Items) {
		o.t.Fatalf("batch: %d results for %d items: %v: %s", len(resp.Results), len(req.Items), err, c.resp)
	}
	ep := personalizeEndpoint
	if req.Execute {
		ep = executeEndpoint
	}
	for i, raw := range resp.Results {
		var item struct {
			Error     *errorBody `json:"error"`
			Duplicate bool       `json:"duplicate"`
		}
		if err := json.Unmarshal(raw, &item); err != nil {
			o.t.Fatal(err)
		}
		if item.Error != nil {
			continue
		}
		var in struct {
			ProfileID string `json:"profile_id"`
		}
		_ = json.Unmarshal(req.Items[i], &in)
		o.check(c, ep, in.ProfileID, req.Items[i], raw, func(r response) any {
			out := itemFrom(answer{resp: r})
			out.Duplicate = item.Duplicate
			return out
		})
	}
}
