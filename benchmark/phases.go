package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cqp"
	"cqp/internal/core"
	"cqp/internal/prefspace"
	"cqp/internal/rewrite"
	"cqp/internal/server"
	"cqp/internal/sqlparse"
	"cqp/internal/wal"
)

// replayCap bounds the sequential traced replay.
const replayCap = 400

// tracedRun produces the per-layer numbers, all measured from outside the
// program. A quarter of the run length goes to an untraced closed-loop
// window (the counts, and the baseline of the overhead ratio), a quarter to
// the same loop with spans on, and up to half to a one-goroutine replay of
// the stream's next requests, each sent under a root span and then taken
// apart layer by layer; the micro rows follow.
func (e *env) tracedRun(cfg runConfig, chk *checker, rep *report, d time.Duration) error {
	// Each pass gets its own third of the streams, so that a window short
	// of time (the smoke test's) cannot leave the next one without requests.
	var thirds [3][clients][]op
	for c, s := range e.streams {
		n := len(s) / 3
		thirds[0][c], thirds[1][c], thirds[2][c] = s[:n], s[n:2*n], s[2*n:]
	}
	plain := e.drive(thirds[0], d/4, false)
	e.tally(plain, chk, rep)
	spans := e.drive(thirds[1], d/4, true)
	e.tally(spans, chk, rep)
	shares, err := e.replay(thirds[2][0], d/2, chk, rep)
	if err != nil {
		return err
	}
	for _, p := range phaseNames {
		rep.set("phase."+p+".share", "ratio", shares.share(p), "")
	}
	for _, r := range reconciled {
		cov, n := shares.coverage(r)
		remark := fmt.Sprintf("%d requests", n)
		if n > 0 && (cov < 0.9 || cov > 1.1) {
			remark += ", OUTSIDE [0.9, 1.1]: see README"
		}
		rep.set("reconcile."+r+".coverage", "ratio", cov, remark)
	}
	rep.set("trace.overhead_ratio", "ratio",
		ratio(spans.wall.Seconds()/float64(max(spans.ops, 1)), plain.wall.Seconds()/float64(max(plain.ops, 1))),
		fmt.Sprintf("closed-loop wall per op with spans on (%d ops) over spans off (%d ops)", spans.ops, plain.ops))
	e.counts(plain, rep)

	if err := e.micro(cfg, rep); err != nil {
		return fmt.Errorf("micro rows: %w", err)
	}
	path := filepath.Join(cfg.workDir, "trace.jsonl")
	if err := e.tracer.writeJSONL(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.notef("%d spans written to %s", len(e.tracer.spans), path)
	return nil
}

// phaseSums accumulates the replay's span durations.
type phaseSums struct {
	roundtrip time.Duration
	handler   time.Duration
	layer     map[string]time.Duration
	endpoint  map[string]*endpointSums // the reconciled endpoints
}

// endpointSums is one endpoint's handler wall against the layer time
// measured from outside for the same requests.
type endpointSums struct {
	handler, layers time.Duration
	requests        int
}

func (p *phaseSums) share(phase string) float64 {
	switch phase {
	case "http":
		return ratio(float64(p.roundtrip-p.handler), float64(p.roundtrip))
	case "shell":
		var layers time.Duration
		for _, d := range p.layer {
			layers += d
		}
		return ratio(float64(p.handler-layers), float64(p.roundtrip))
	}
	return ratio(float64(p.layer[phase]), float64(p.roundtrip))
}

func (p *phaseSums) coverage(endpoint string) (float64, int) {
	s := p.endpoint[endpoint]
	if s == nil {
		return 0, 0
	}
	return ratio(float64(s.layers), float64(s.handler)), s.requests
}

// pipelineRequest is the union of the pipeline endpoints' request bodies.
type pipelineRequest struct {
	SQL       string  `json:"sql"`
	ProfileID string  `json:"profile_id"`
	K         int     `json:"k"`
	MaxK      int     `json:"max_k"`
	MaxPoints int     `json:"max_points"`
	Limit     int     `json:"limit"`
	CmaxMS    float64 `json:"cmax_ms"`
	Problem   struct {
		Number int     `json:"number"`
		CmaxMS float64 `json:"cmax_ms"`
		Smin   float64 `json:"smin"`
		Smax   float64 `json:"smax"`
		Dmin   float64 `json:"dmin"`
	} `json:"problem"`
	Items []pipelineRequest `json:"items"`
}

// replay sends up to replayCap requests one at a time, each under a root
// span whose handler span the wrapper records, and after each reply calls
// the layers the handler called — parse, profile lookup, preference space,
// search, construction, execution, encoding — under spans of their own.
// What the handler took beyond them is the serving shell's self time.
func (e *env) replay(ops []op, budget time.Duration, chk *checker, rep *report) (*phaseSums, error) {
	sums := &phaseSums{layer: map[string]time.Duration{}, endpoint: map[string]*endpointSums{}}
	scratch, err := e.scratchStore()
	if err != nil {
		return nil, err
	}
	defer scratch.Close()
	cl := newClient(e)
	defer cl.close()
	began := time.Now()
	var v verdict
	done := 0
	for _, o := range ops {
		if done == replayCap || time.Since(began) > budget {
			break
		}
		done++
		root, hid := e.tracer.newID(), e.tracer.newID()
		start := time.Now()
		status, body, err := cl.send(o, root, hid)
		end := time.Now()
		e.tracer.add(root, 0, root, "roundtrip", start, end)
		rep.Attempted++
		if err != nil || status != 200 {
			rep.Failed++
			rep.notef("replay: %s failed: status %d: %v", kindNames[o.kind], status, err)
			continue
		}
		r := reply{o, status, append([]byte(nil), body...)}
		// Collect before taking the request apart, as after it: the layer
		// calls then start from the heap the handler started from, and
		// their garbage is not left for the next round trip to pay for.
		runtime.GC()
		if o.kind == opProfilePut {
			if err := chk.ack(r); err != nil {
				v.note(err)
			}
		} else {
			v.note(chk.check(r))
		}
		layers, err := e.layers(r, cl.req, root, hid, scratch)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", kindNames[o.kind], err)
		}
		for name, d := range layers {
			sums.layer[name] += d
		}
		runtime.GC()
		handler := e.tracer.durationOf(hid)
		sums.roundtrip += end.Sub(start)
		sums.handler += handler
		if ep := kindNames[o.kind]; slices.Contains(reconciled, ep) {
			s := sums.endpoint[ep]
			if s == nil {
				s = &endpointSums{}
				sums.endpoint[ep] = s
			}
			s.handler += handler
			for _, d := range layers {
				s.layers += d
			}
			s.requests++
		}
	}
	rep.count("replayed answers", v)
	rep.notef("replayed %d requests one at a time in %.2f s", done, time.Since(began).Seconds())
	return sums, nil
}

// scratchStore is a profile store of the same kind as the server's, for
// replaying PUTs without touching the server's.
func (e *env) scratchStore() (*server.ProfileStore, error) {
	if !e.spec.durable {
		return server.NewProfileStore(e.db.Schema()), nil
	}
	ps, _, err := server.NewDurableProfileStore(e.db.Schema(), filepath.Join(e.dir, "replay-wal"),
		wal.Options{Sync: wal.SyncInterval})
	return ps, err
}

// layers replays, under spans parented to the request's handler span, the
// public layer calls the handler made for this request, and returns each
// layer's time. Whether the handler ran the pipeline or answered from its
// cache is read off the reply.
func (e *env) layers(r reply, reqBody []byte, root, parent uint64, scratch *server.ProfileStore) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	span := func(name string, fn func()) {
		out[name] += e.tracer.timed(parent, root, name, fn)
	}
	o := r.op
	id := profileID(int(o.profile))
	switch o.kind {
	case opProfilePut:
		var err error
		span("profile_put", func() { _, err = scratch.Put(id, string(reqBody)) })
		return out, err
	case opProfileGet:
		var doc profileDoc
		if err := json.Unmarshal(r.body, &doc); err != nil {
			return nil, err
		}
		span("profile", func() { e.srv.Profiles().Get(id) })
		span("encode", func() { sink, _ = json.Marshal(&doc) })
		return out, nil
	}

	// Decode the reply outside any span: it tells which items were cached
	// and is what the encode span marshals again.
	var doc replyDoc
	switch o.kind {
	case opPersonalize, opExecute:
		doc = &answerDoc{}
	case opTopK:
		doc = &topkDoc{}
	case opFront:
		doc = &frontDoc{}
	case opBatch:
		doc = &batchDoc{}
	}
	if err := json.Unmarshal(r.body, doc); err != nil {
		return nil, err
	}
	cached := doc.cachedItems()

	var req pipelineRequest
	var items []pipelineRequest
	var queries []*cqp.Query
	var perr error
	span("parse", func() {
		if perr = json.Unmarshal(reqBody, &req); perr != nil {
			return
		}
		items = req.Items
		if o.kind != opBatch {
			items = []pipelineRequest{req}
		}
		for _, it := range items {
			q, err := sqlparse.Parse(e.db.Schema(), it.SQL)
			if err != nil {
				perr = err
				return
			}
			queries = append(queries, q)
		}
	})
	if perr != nil {
		return nil, perr
	}
	if len(cached) != len(items) {
		return nil, fmt.Errorf("reply has %d answers for %d items", len(cached), len(items))
	}
	profiles := make([]*cqp.Profile, len(items))
	span("profile", func() {
		for i, it := range items {
			if sp, ok := e.srv.Profiles().Get(it.ProfileID); ok {
				profiles[i] = sp.Profile
			}
		}
	})
	for i, it := range items {
		if cached[i] {
			continue
		}
		if profiles[i] == nil {
			return nil, fmt.Errorf("no profile %q", it.ProfileID)
		}
		if err := e.pipeline(o.kind, it, queries[i], profiles[i], span); err != nil {
			return nil, err
		}
	}
	span("encode", func() { sink, _ = json.Marshal(doc) })
	return out, nil
}

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink any

// pipeline calls the Figure-2 layers for one uncached pipeline request the
// way the serving path does: preference space under the problem's cost
// bound, search under the default 2^20 state budget, construction, and for
// /execute and /topk the execution.
func (e *env) pipeline(kind opKind, it pipelineRequest, q *cqp.Query, prof *cqp.Profile, span func(string, func())) error {
	ctx := context.Background()
	var prob cqp.Problem
	var err error
	k := it.K
	switch kind {
	case opTopK:
		prob, k = cqp.Problem2(it.CmaxMS), it.MaxK
	case opFront:
		prob = cqp.Problem{CostMax: it.CmaxMS}
	default:
		p := it.Problem
		if prob, err = cqp.BuildProblem(p.Number, p.CmaxMS, p.Smin, p.Smax, p.Dmin); err != nil {
			return err
		}
	}
	var sp *prefspace.Space
	span("prefspace", func() {
		sp, err = prefspace.BuildContext(ctx, q, prof, e.est, prefspace.Options{MaxK: k, CostMax: prob.CostMax})
	})
	if err != nil {
		return err
	}
	in := core.FromSpace(sp)
	in.StateBudget = 1 << 20
	if kind == opFront {
		span("search", func() {
			front, _ := core.ParetoFront(in, core.ParetoOptions{CostMax: it.CmaxMS, MaxPoints: it.MaxPoints})
			sink, _ = core.KneeIndex(front)
		})
		return nil
	}
	var sol core.Solution
	span("search", func() { sol, err = core.Solve(in, prob, "") })
	if err != nil {
		return err
	}
	if !sol.Feasible {
		return fmt.Errorf("replayed search found %s infeasible", prob)
	}
	var pq *rewrite.Personalized
	span("construct", func() {
		chosen := make([]prefspace.Pref, 0, len(sol.Set))
		for _, i := range sol.Set {
			chosen = append(chosen, sp.P[i])
		}
		pq = rewrite.Construct(q, chosen, kind != opTopK)
		sink = pq.SQL()
	})
	switch kind {
	case opExecute:
		span("execute", func() { sink, err = pq.ExecuteContext(ctx, e.db) })
	case opTopK:
		span("execute", func() { sink, err = pq.ExecuteTopKContext(ctx, e.db, it.K) })
	}
	return err
}
