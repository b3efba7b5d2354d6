package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"cqp"
	"cqp/internal/blockstore"
	"cqp/internal/core"
	"cqp/internal/estimate"
	"cqp/internal/exec"
	"cqp/internal/iter"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/rewrite"
	"cqp/internal/server"
	"cqp/internal/sqlparse"
	"cqp/internal/workload"
)

// microSpec is the little world the micro rows run in: the same for every
// workload, so a row means the same thing whichever traced run printed it.
func microSpec(durable bool) *spec {
	return &spec{name: "micro", movies: 2000, profiles: 16, queries: 4, durable: durable,
		generate: func(*generator) {}}
}

// microBench measures fixed-iteration rows and files them under the
// measures spec.go lists for each.
type microBench struct {
	rep      *report
	measures map[string][]string
	scale    float64
}

// row runs fn iters times (scaled down in the smoke test) after a
// collection and reports time, allocations and bytes per call.
func (mb *microBench) row(name string, iters int, fn func()) {
	iters = max(1, int(float64(iters)*mb.scale))
	runtime.GC()
	before := readUsage()
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	after := readUsage()
	n := float64(iters)
	for _, m := range mb.measures[name] {
		switch m {
		case "ns_op":
			mb.rep.set(name+".ns_op", "ns", float64(elapsed.Nanoseconds())/n, fmt.Sprintf("%d iterations", iters))
		case "allocs_op":
			mb.rep.set(name+".allocs_op", "count", float64(after.mallocs-before.mallocs)/n, "")
		case "b_op":
			mb.rep.set(name+".b_op", "B", float64(after.bytes-before.bytes)/n, "")
		}
	}
}

func (mb *microBench) extra(name, measure string, v float64) {
	mb.rep.set(name+"."+measure, "count", v, "")
}

// micro runs every micro row. Each calls one layer's public functions
// directly, a fixed number of times, on inputs made from the seed.
func (e *env) micro(cfg runConfig, rep *report) error {
	mb := &microBench{rep: rep, measures: map[string][]string{}, scale: min(1, cfg.scale*10)}
	for _, r := range microRows() {
		mb.measures[r.name] = r.measures
	}
	m, err := setUp(microSpec(false), cfg.seed, cfg.scale, cfg.workDir, false)
	if err != nil {
		return err
	}
	defer m.close()
	ctx := context.Background()
	schema := m.db.Schema()
	q, prof := m.queries[0], m.profiles[0]
	sql, text := q.SQL(), m.texts[0].text(0)
	// The library's default state budget; the smoke test shrinks it with
	// everything else.
	budget := max(1000, int(float64(1<<20)*min(1, cfg.scale)))

	mb.row("sqlparse.parse", 2000, func() { sink, _ = sqlparse.Parse(schema, sql) })
	mb.row("prefs.parse_profile", 200, func() { sink, _ = prefs.ParseProfile(text) })
	mb.row("prefspace.build.k20.memo_warm", 200, func() {
		sink, _ = prefspace.Build(q, prof, m.est, prefspace.Options{MaxK: 20})
	})
	mb.row("prefspace.build.k20.memo_cold", 50, func() {
		// A new estimator over the same statistics starts with an empty memo.
		fresh := estimate.New(m.est.Catalog(), estimate.DefaultBlockMillis)
		sink, _ = prefspace.Build(q, prof, fresh, prefspace.Options{MaxK: 20})
	})

	instance := func(k int) (*prefspace.Space, *core.Instance, error) {
		sp, err := prefspace.Build(q, prof, m.est, prefspace.Options{MaxK: k})
		if err != nil {
			return nil, nil, err
		}
		in := core.FromSpace(sp)
		in.StateBudget = budget
		return sp, in, nil
	}
	sp20, in20, err := instance(20)
	if err != nil {
		return err
	}
	_, in40, err := instance(40)
	if err != nil {
		return err
	}
	for _, a := range core.Algorithms {
		var sol core.Solution
		mb.row("core.search."+a.Name+".k20", 2, func() { sol = a.Solve(in20, 0.4*in20.SupremeCost()) })
		mb.extra("core.search."+a.Name+".k20", "states_op", float64(sol.Stats.StatesVisited))
		mb.row("core.search."+a.Name+".k40", 1, func() { sol = a.Solve(in40, 0.4*in40.SupremeCost()) })
	}
	sup, window := in20.SupremeCost(), in20.BaseSize*0.29
	for _, p := range []struct {
		name string
		prob cqp.Problem
	}{
		{"p1", cqp.Problem1(1, window)},
		{"p3", cqp.Problem3(0.245*sup, 1, window)},
		{"p4", cqp.Problem4(0.945)},
		{"p5", cqp.Problem5(0.85, 1, window)},
		{"p6", cqp.Problem6(1, window)},
	} {
		mb.row("core.solve."+p.name+".k20", 3, func() { sink, _ = core.Solve(in20, p.prob, "") })
	}

	chosen := func(sp *prefspace.Space, in *core.Instance, frac float64) []prefspace.Pref {
		var out []prefspace.Pref
		for _, i := range core.CMaxBounds(in, frac*in.SupremeCost()).Set {
			out = append(out, sp.P[i])
		}
		return out
	}
	picked20 := chosen(sp20, in20, 0.4)
	mb.row("rewrite.construct.k20", 2000, func() { sink = rewrite.Construct(q, picked20, true).SQL() })

	sp10, in10, err := instance(10)
	if err != nil {
		return err
	}
	picked10 := chosen(sp10, in10, 0.75)
	all, ranked := rewrite.Construct(q, picked10, true), rewrite.Construct(q, picked10, false)
	var res *exec.UnionResult
	var execErr error
	union := func(name string, iters int, fn func() (*exec.UnionResult, error)) {
		mb.row(name, iters, func() {
			if res, execErr = fn(); execErr != nil {
				res = &exec.UnionResult{}
			}
		})
		mb.extra(name, "block_reads_op", float64(res.BlockReads))
	}
	union("exec.union.mem.k10", 20, func() (*exec.UnionResult, error) { return all.ExecuteContext(ctx, m.db) })
	union("exec.topk.mem.k10", 20, func() (*exec.UnionResult, error) { return ranked.ExecuteTopKContext(ctx, m.db, topkAnswers) })
	spill := iter.WithBudget(ctx, iter.Budget{Bytes: 256 << 10, Dir: m.dir})
	union("exec.union.spill.k10", 10, func() (*exec.UnionResult, error) { return all.ExecuteContext(spill, m.db) })

	store, err := blockstore.Open(filepath.Join(m.dir, "disk"), schema, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	disk, err := store.DB()
	if err != nil {
		return err
	}
	workload.GenerateInto(disk, workload.DBConfig{Movies: m.scaled(m.spec.movies, 300), Seed: subSeed(cfg.seed, tagDB)})
	if err := store.Sync(); err != nil {
		return err
	}
	union("exec.union.disk.k10", 10, func() (*exec.UnionResult, error) { return all.ExecuteContext(ctx, disk) })
	if execErr != nil {
		return execErr
	}

	// Sixteen users' queries in one batch, with one shared scan per relation
	// and with private scans (a one-byte share makes every relation
	// "oversized", the library's own fallback).
	lib := cqp.NewPersonalizer(m.db)
	var items []cqp.BatchItem
	for i, p := range m.profiles {
		sp, err := prefspace.Build(q, p, m.est, prefspace.Options{MaxK: 10})
		if err != nil {
			return err
		}
		items = append(items, cqp.BatchItem{Query: q, Profile: m.profiles[i],
			Problem: cqp.Problem2(0.75 * sp.SupremeCost()), Opts: []cqp.Option{cqp.WithMaxK(10)}})
	}
	for _, b := range []struct {
		name  string
		share int64
	}{{"exec.batch16.shared", 0}, {"exec.batch16.private", 1}} {
		name := b.name
		var out []cqp.BatchResult
		mb.row(name, 3, func() { out = lib.ExecuteBatch(ctx, items, 0, b.share) })
		var reads int64
		for _, r := range out {
			if r.Err != nil {
				return r.Err
			}
			reads += r.Exec.BlockReads
		}
		mb.extra(name, "block_reads_op", float64(reads))
	}

	if err := m.serverRows(mb, cfg); err != nil {
		return err
	}
	hop, err := proxyHop(m, max(1, int(300*mb.scale)))
	if err != nil {
		return fmt.Errorf("cluster.proxy_hop: %w", err)
	}
	rep.set("cluster.proxy_hop.ns_op", "ns", hop, "same cached request through the non-owner minus through the owner")
	return nil
}

// serverRows drives the serving shell through Handler().ServeHTTP with a
// recorder, then once over loopback.
func (m *env) serverRows(mb *microBench, cfg runConfig) error {
	h := m.srv.Handler()
	var failure error
	serve := func(h http.Handler, method, path string, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK && failure == nil {
			failure = fmt.Errorf("%s %s: status %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
		}
	}
	sup := func(profile, k int) float64 {
		sp, err := prefspace.Build(m.queries[0], m.profiles[profile], m.est, prefspace.Options{MaxK: k})
		if err != nil {
			if failure == nil {
				failure = err
			}
			return 1
		}
		return sp.SupremeCost()
	}
	// One cached /personalize key per profile (the batch row asks for the
	// first eight), one cached /execute key, and two keys whose bound moves
	// on every call so they always miss.
	personalize := make([]op, batchItems)
	for p := range personalize {
		personalize[p] = op{kind: opPersonalize, profile: uint32(p),
			arg: m.addBounds(bounds{problem: 2, k: 20, cmax: 0.3 * sup(p, 20)})}
	}
	execute := op{kind: opExecute, arg: m.addBounds(bounds{problem: 2, k: 10, cmax: 0.75 * sup(0, 10)})}
	pMiss := op{kind: opPersonalize, arg: m.addBounds(bounds{problem: 2, k: 20, cmax: nonBinding})}
	eMiss := op{kind: opExecute, arg: m.addBounds(bounds{problem: 2, k: 10, cmax: nonBinding})}
	// A workload's batch is one profile's queries 0..7; here it is eight
	// profiles on query 0, so encode it by hand.
	batchBody := []byte(`{"items":[`)
	for i, o := range personalize {
		if i > 0 {
			batchBody = append(batchBody, ',')
		}
		batchBody = m.appendItem(batchBody, o)
	}
	batchBody = append(batchBody, "]}"...)

	hit := func(name string, iters int, o op) {
		method, path, body := m.request(nil, o)
		serve(h, method, path, body) // fill the cache
		mb.row(name, iters, func() { serve(h, method, path, body) })
	}
	miss := func(name string, iters int, o op) {
		mb.row(name, iters, func() {
			m.bounds[o.arg].cmax++
			method, path, body := m.request(nil, o)
			serve(h, method, path, body)
		})
	}
	hit("server.personalize.hit", 3000, personalize[0])
	miss("server.personalize.miss", 300, pMiss)
	hit("server.execute.hit", 2000, execute)
	miss("server.execute.miss", 30, eMiss)
	for _, o := range personalize {
		method, path, body := m.request(nil, o)
		serve(h, method, path, body)
	}
	mb.row("server.batch8.hit", 500, func() { serve(h, "POST", "/personalize/batch", batchBody) })
	variant := uint32(0)
	put := func(e *env) func() {
		hh := e.srv.Handler()
		return func() {
			variant++
			method, path, body := e.request(nil, op{kind: opProfilePut, profile: 1, arg: variant})
			serve(hh, method, path, body)
		}
	}
	mb.row("server.profile_put.mem", 300, put(m))
	durable, err := setUp(microSpec(true), cfg.seed, cfg.scale, cfg.workDir, false)
	if err != nil {
		return err
	}
	mb.row("server.profile_put.wal", 300, put(durable))
	durable.close()
	method, path, _ := m.request(nil, op{kind: opProfileGet})
	mb.row("server.profile_get", 3000, func() { serve(h, method, path, nil) })

	cl := newClient(m)
	defer cl.close()
	mb.row("http.roundtrip.hit", 2000, func() {
		status, _, err := cl.send(personalize[0], 0, 0)
		if (err != nil || status != http.StatusOK) && failure == nil {
			failure = fmt.Errorf("roundtrip: status %d: %v", status, err)
		}
	})
	return failure
}

// proxyHop boots two in-process cluster nodes on loopback, stores one
// profile, and times the same cached /personalize through the node that
// owns the profile and through the one that must proxy to it. The
// difference is what one cluster hop costs.
func proxyHop(m *env, iters int) (float64, error) {
	ids := []string{"a", "b"}
	lns := map[string]net.Listener{}
	peers := map[string]string{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns[id], peers[id] = ln, "http://"+ln.Addr().String()
	}
	for _, id := range ids {
		srv, err := server.New(workload.GenerateDB(workload.DBConfig{Movies: 300, Seed: 1}),
			server.Config{NodeID: id, ClusterPeers: peers})
		if err != nil {
			return 0, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(lns[id]) // returns nil after Shutdown
		}()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = srv.Shutdown(ctx)
			cancel()
			<-done
		}()
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	do := func(method, url string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes(), nil
	}
	id := profileID(0)
	if _, err := do("PUT", peers["a"]+"/profiles/"+id, []byte(m.texts[0].text(0))); err != nil {
		return 0, err
	}
	raw, err := do("GET", peers["a"]+"/cluster/route/"+id, nil)
	if err != nil {
		return 0, err
	}
	var route struct {
		Owner string `json:"owner"`
	}
	if err := json.Unmarshal(raw, &route); err != nil {
		return 0, err
	}
	other := "a"
	if route.Owner == "a" {
		other = "b"
	}
	_, path, body := m.request(nil, op{kind: opPersonalize, arg: m.addBounds(bounds{problem: 2, k: 20, cmax: nonBinding})})
	timeVia := func(node string) (time.Duration, error) {
		if _, err := do("POST", peers[node]+path, body); err != nil { // cache and connections warm
			return 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := do("POST", peers[node]+path, body); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	direct, err := timeVia(route.Owner)
	if err != nil {
		return 0, err
	}
	proxied, err := timeVia(other)
	if err != nil {
		return 0, err
	}
	return float64((proxied - direct).Nanoseconds()) / float64(iters), nil
}
