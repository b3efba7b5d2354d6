package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"cqp"
	"cqp/internal/exec"
	"cqp/internal/obs"
)

// The pipeline endpoints are one request skeleton with different parameters
// (the paper's Table 1 is one problem family with different bounds): an
// endpoint is described as data, and one driver — prepare, lookup, run —
// serves them all. handle is the driver's HTTP face, handleBatch its list
// face.

// request is a decoded pipeline request body: the common part plus what the
// driver needs from the endpoint's own fields.
type request interface {
	base() *common
	// check validates and defaults the endpoint's own fields.
	check(s *Server) error
	// extra returns the solver parameters — the part of the cache key, the
	// stale key and the batch identity that is neither query nor profile.
	extra() keyParams
	// ladder names the degradation rungs below the stale rung, cheapest
	// last; solve computes the response at one of them ("" is full
	// fidelity).
	ladder() []string
	solve(ctx context.Context, s *Server, q *cqp.Query, prof *cqp.Profile, version uint64, rung string) (any, error)
}

// response is an endpoint's answer: a body embedding the envelope.
type response interface{ env() *envelope }

// endpoint describes one pipeline endpoint: its name (metric label, trace
// root, cache-key prefix), a fresh request body to decode into, and how to
// copy its response type. /personalize and /execute are one request type;
// the execute flag decides whether the personalized query also runs.
type endpoint struct {
	name       string
	newRequest func() request
	clone      func(shared any) response
}

var (
	personalizeEndpoint = &endpoint{"personalize", func() request { return new(personalizeRequest) }, cloneAs[personalizeResponse]}
	executeEndpoint     = &endpoint{"execute", func() request { return &personalizeRequest{execute: true} }, cloneAs[executeResponse]}
	frontEndpoint       = &endpoint{"front", func() request { return new(frontRequest) }, cloneAs[frontResponse]}
	topkEndpoint        = &endpoint{"topk", func() request { return new(topkRequest) }, cloneAs[topkResponse]}
)

// solveLadder is the full degradation ladder below the stale rung; each
// endpoint walks the part of it that applies.
var solveLadder = []string{"heuristic", "tight-cmax"}

// tightenFactor is the cmax multiplier of the "tight-cmax" rung: a cheaper,
// lower-quality search under the paper's own knob (a smaller feasible
// region is faster to search).
const tightenFactor = 0.5

// cloneAs copies a shared *T response.
func cloneAs[T any, P interface {
	*T
	response
}](shared any) response {
	resp := *shared.(P)
	return P(&resp)
}

// stamp is the one copy-and-mark: a response in the result cache, the stale
// index or a coalesced flight is shared and must never be mutated, so each
// request marks its own copy.
func (ep *endpoint) stamp(shared any, cached bool, degraded string) response {
	resp := ep.clone(shared)
	e := resp.env()
	e.Cached, e.Degraded = cached, degraded
	return resp
}

func (r *personalizeRequest) check(s *Server) (err error) {
	if !r.execute {
		r.Limit = 0 // a personalize-only answer has no rows to cap
	} else if r.Limit <= 0 {
		r.Limit = s.cfg.MaxRows
	}
	r.prob, err = r.Problem.build()
	return err
}

func (r *personalizeRequest) extra() keyParams {
	p := r.prob
	return keyParams{
		floats: [4]float64{p.CostMax, p.DoiMin, p.SizeMin, p.SizeMax},
		ints:   [4]int{int(p.Objective), r.K, r.Budget, r.Limit},
		flags:  [2]bool{r.AnyMatch, r.Merge},
		text:   r.Algorithm,
	}
}

// ladder: the D-HeurDoi heuristic, then the heuristic under a tightened
// cmax — a problem with no cost bound has nothing to tighten.
func (r *personalizeRequest) ladder() []string {
	if r.prob.CostMax <= 0 {
		return solveLadder[:1]
	}
	return solveLadder
}

func (r *personalizeRequest) solve(ctx context.Context, s *Server, q *cqp.Query, prof *cqp.Profile, version uint64, rung string) (any, error) {
	prob, alg := r.prob, r.Algorithm
	if rung != "" {
		alg = "D_HeurDoi"
	}
	if rung == "tight-cmax" {
		prob.CostMax *= tightenFactor
	}
	res, err := s.p.PersonalizeContext(ctx, q, prof, prob, buildOpts(alg, r.K, r.Budget, r.AnyMatch, r.Merge)...)
	if err != nil {
		return nil, err
	}
	pr := personalizeResponseFrom(res, r.ProfileID, version)
	if !r.execute {
		return pr, nil
	}
	// The response ships limit rows (check defaults it), so the executor
	// keeps a limit-row heap instead of ranking the whole answer.
	rows, err := res.ExecuteTopKContext(ctx, r.Limit)
	if err != nil {
		return nil, err
	}
	return executeResponseFrom(pr, rows), nil
}

// executeResponseFrom extends a personalization's response with its
// executed top rows and the size of the whole answer.
func executeResponseFrom(pr *personalizeResponse, rows *exec.UnionResult) *executeResponse {
	er := &executeResponse{
		personalizeResponse: *pr,
		TotalRows:           rows.Total,
		BlockReads:          rows.BlockReads,
		ExecMS:              float64(rows.Elapsed) / float64(time.Millisecond),
	}
	for _, rr := range rows.Rows {
		vals := make([]string, len(rr.Key))
		for j, v := range rr.Key {
			vals[j] = v.String()
		}
		er.Rows = append(er.Rows, rowJSON{Values: vals, Doi: rr.Doi, Matched: len(rr.Matched)})
	}
	er.RowCount = len(er.Rows)
	return er
}

func (r *frontRequest) check(*Server) error { return nil }

func (r *frontRequest) extra() keyParams {
	return keyParams{floats: [4]float64{r.CmaxMS, r.Smin, r.Smax}, ints: [4]int{r.MaxPoints, r.K, r.Budget}}
}

// ladder: the doi/cost Pareto frontier has no heuristic rung — the frontier
// IS the exhaustive sweep — so after stale it goes straight to a tightened
// cmax (a smaller frontier is still a truthful menu, just a shorter one).
func (r *frontRequest) ladder() []string {
	if r.CmaxMS <= 0 {
		return nil
	}
	return solveLadder[1:]
}

func (r *frontRequest) solve(ctx context.Context, s *Server, q *cqp.Query, prof *cqp.Profile, _ uint64, rung string) (any, error) {
	cmax := r.CmaxMS
	if rung == "tight-cmax" {
		cmax *= tightenFactor
	}
	front, err := s.p.PersonalizeFrontContext(ctx, q, prof, cmax, r.Smin, r.Smax, r.MaxPoints,
		buildOpts("", r.K, r.Budget, false, false)...)
	if err != nil {
		return nil, err
	}
	fr := &frontResponse{
		Points:    make([]frontPointJSON, 0, len(front.Points)),
		Truncated: front.Truncated,
	}
	for _, fp := range front.Points {
		fr.Points = append(fr.Points, frontPointJSON{
			Preferences: fp.Preferences,
			Doi:         fp.Doi,
			CostMS:      fp.CostMS,
			SizeRows:    fp.Size,
			Knee:        fp.Knee,
		})
	}
	return fr, nil
}

func (r *topkRequest) check(*Server) error {
	if r.K <= 0 {
		r.K = 10
	}
	if r.CmaxMS <= 0 {
		r.CmaxMS = 400
	}
	return nil
}

func (r *topkRequest) extra() keyParams {
	return keyParams{floats: [4]float64{r.CmaxMS}, ints: [4]int{r.K, r.MaxK}}
}

// ladder: like /front, /topk degrades by tightening cmax — fewer union
// branches execute, the answers that do come back are still genuinely
// top-interest.
func (r *topkRequest) ladder() []string { return solveLadder[1:] }

func (r *topkRequest) solve(ctx context.Context, s *Server, q *cqp.Query, prof *cqp.Profile, _ uint64, rung string) (any, error) {
	cmax := r.CmaxMS
	if rung == "tight-cmax" {
		cmax *= tightenFactor
	}
	answers, err := s.p.PersonalizeTopKContext(ctx, q, prof, cmax, r.K, buildOpts("", r.MaxK, 0, false, false)...)
	if err != nil {
		return nil, err
	}
	out := &topkResponse{Answers: make([]rowJSON, 0, len(answers))}
	for _, a := range answers {
		vals := make([]string, len(a.Row))
		for j, v := range a.Row {
			vals[j] = v.String()
		}
		out.Answers = append(out.Answers, rowJSON{Values: vals, Doi: a.Doi, Matched: a.Matched})
	}
	return out, nil
}

// call is one request on its way through the driver: the endpoint and the
// decoded body, then what prepare resolved.
type call struct {
	ep  *endpoint
	req request

	// q is shared with every request that sent the same SQL text (the query
	// memo's parse) — read, never written; sql is its rendering.
	parsedQuery
	prof    *cqp.Profile
	version uint64
	// replica marks a profile resolved from a failover replica: the answer
	// is marked stale_replica and never cached.
	replica bool
	// key and staleKey are empty for an uncacheable call (inline profile,
	// replica profile, no_cache).
	key, staleKey string
}

// answer is the driver's result: the response to send or the error, plus
// the flight-record view of how it came about. The driver itself writes no
// record — its caller does, once (a batch aggregates its units first).
type answer struct {
	resp response
	err  error
	role string // "hit" | "leader" | "follower" | "solo"
	rung string // degradation rung; "unavailable" when the ladder ran dry
}

// keyParams are an endpoint's solver parameters in the one shape a key takes
// them in; a slot the endpoint does not use stays zero. A request returns
// them by value — a buffer handed to an interface method would escape — so
// the cache key, the stale key and the batch identity are appended on the
// caller's stack: no fmt, one string at the end. Keys never leave the
// process; the layout only has to give distinct work distinct keys.
type keyParams struct {
	floats [4]float64
	ints   [4]int
	flags  [2]bool
	text   string
}

func (p keyParams) appendTo(b []byte) []byte {
	for _, f := range p.floats {
		b = append(strconv.AppendFloat(b, f, 'g', -1, 64), ' ')
	}
	for _, n := range p.ints {
		b = append(strconv.AppendInt(b, int64(n), 10), ' ')
	}
	for _, f := range p.flags {
		b = append(strconv.AppendBool(b, f), ' ')
	}
	return appendText(b, p.text)
}

// appendText appends client-chosen text behind its length, so no choice of
// text can imitate the key parts next to it.
func appendText(b []byte, s string) []byte {
	b = append(strconv.AppendInt(b, int64(len(s)), 10), ':')
	return append(b, s...)
}

// appendIdentity appends what names the call's work at any profile version:
// endpoint, solver parameters, profile (ID or inline text's hash), and last
// the query's rendering.
func (c *call) appendIdentity(b []byte) []byte {
	b = append(append(b, c.ep.name...), '|')
	b = c.req.extra().appendTo(b)
	if in := c.req.base(); in.ProfileID != "" {
		b = appendText(append(b, "|id"...), in.ProfileID)
	} else {
		h := fnv.New64a()
		h.Write([]byte(in.Profile))
		b = strconv.AppendUint(append(b, "|inline"...), h.Sum64(), 16)
	}
	return append(append(b, '|'), c.sql...)
}

// prepare resolves a decoded body into a runnable call: the parsed query
// (from the query memo when the text has been seen), the endpoint's own
// validation, the profile — a stored one by ID, at its version (a replica's
// when route chose this node as a failover follower), or an inline parsed
// one — and, for a cacheable request, the cache keys.
func (s *Server) prepare(c *call, replica bool) error {
	in := c.req.base()
	var err error
	if c.parsedQuery, err = s.queries.parse(s.db.Schema(), in.SQL); err != nil {
		return err
	}
	if err = c.req.check(s); err != nil {
		return err
	}
	switch {
	case in.ProfileID != "" && in.Profile != "":
		return fmt.Errorf("server: profile_id and profile are mutually exclusive")
	case in.ProfileID != "":
		sp, stale, ok := s.profile(in.ProfileID, replica)
		if !ok {
			return fmt.Errorf("%w %q", errNoProfile, in.ProfileID)
		}
		c.replica = stale
		c.prof, c.version = sp.Profile, sp.Version
	case in.Profile != "":
		if c.prof, err = cqp.ParseProfile(in.Profile); err == nil {
			err = c.prof.Validate(s.db.Schema())
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("server: request needs profile_id or profile")
	}
	if in.ProfileID != "" && !c.replica && !in.NoCache {
		c.setKeys(s.p.Generation())
	}
	return nil
}

// setKeys names a cacheable call. The exact key names the profile at its
// exact version and the statistics generation, so a profile PUT or a Refresh
// invalidates. The stale key — the request's identity, the result cache's
// index — deliberately omits both: its entry stays addressable when either
// rotates, and that staleness is the point. Both go last, so the stale key
// is the exact key's prefix and one string serves both.
func (c *call) setKeys(generation uint64) {
	var buf [512]byte
	b := c.appendIdentity(buf[:0])
	stale := len(b)
	b = strconv.AppendUint(append(b, '@'), c.version, 10)
	b = strconv.AppendUint(append(b, 'g'), generation, 10)
	c.key = string(b)
	c.staleKey = c.key[:stale]
}

// lookup is the warm path: a cacheable call whose exact key is in the result
// cache is answered from that entry (nil: none) without entering the pipeline.
func (s *Server) lookup(c *call) *cacheEntry {
	if c.key == "" || s.cacheFault() {
		return nil
	}
	return s.cache.Get(c.key, len(c.staleKey))
}

// run is the cold path, under a context that carries the request's deadline
// and trace: runPipeline, then the one response tail — shed quality before
// shedding the request, mark what was degraded, fill the cache from a
// full-fidelity leader.
func (s *Server) run(ctx context.Context, c *call) answer {
	// The closure captures the call's fields, not the call, so that a warm
	// request's call stays on the stack.
	req, q, prof, version := c.req, c.q, c.prof, c.version
	solve := func(ctx context.Context, rung string) (any, error) {
		return req.solve(ctx, s, q, prof, version, rung)
	}
	o, led := s.runPipeline(ctx, c.ep.name, c.key, c.staleKey, req.ladder(), solve)
	a := answer{role: "follower"}
	switch {
	case c.key == "":
		a.role = "solo"
	case led:
		a.role = "leader"
	}
	if o.admitErr != nil {
		// Never admitted (saturated queue, shutdown, a deadline that lapsed
		// while waiting) or out of time mid-run: the last good answer when
		// one exists, else the error.
		v, ok := s.cache.GetStale(c.staleKey)
		if !ok {
			a.err = o.admitErr
			return a
		}
		s.reg.Counter("server_degraded_total", "endpoint", c.ep.name, "rung", "stale").Inc()
		o = flightOutcome{out: v, degraded: "stale"}
	}
	if o.perr != nil {
		if errors.Is(o.perr, ErrExhausted) {
			a.rung = "unavailable"
		}
		a.err = o.perr
		return a
	}
	a.rung = o.degraded
	if c.replica && a.rung == "" {
		a.rung = degradedStaleReplica
	}
	if led && o.degraded == "" && c.key != "" && !s.cacheFault() {
		s.cache.Put(c.key, len(c.staleKey), o.out)
	}
	// A stale-rung answer came out of the cache, whichever route led there.
	a.resp = c.ep.stamp(o.out, o.degraded == "stale", a.rung)
	return a
}

// handle is the driver's HTTP face, the same for every endpoint: decode,
// route, prepare, the warm path or the pipeline under a fresh request context,
// then the flight record, the trace payload if asked for, and the response.
func (s *Server) handle(ep *endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := obs.RequestFromContext(r.Context())
		lp := rec.Laps()
		c := call{ep: ep, req: ep.newRequest()}
		body, err := s.decodeJSON(w, r, c.req)
		if err == nil {
			local, replica := s.route(w, r, false, c.req.base().ProfileID, body)
			if !local {
				return
			}
			err = s.prepare(&c, replica)
		}
		if err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
		in := c.req.base()
		rec.SetProfile(profileLabel(in.ProfileID, c.version))
		lp.Lap(obs.PhaseParse)
		hit := s.lookup(&c)
		if c.key != "" {
			lp.Lap(obs.PhaseCache)
		}
		trace := in.Trace || (r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1")
		var a answer
		switch {
		case hit == nil:
			ctx, cancel := s.requestContext(r.Context(), in.TimeoutMS)
			defer cancel()
			a = s.run(ctx, &c)
		case trace:
			// The trace payload is the request's own: the struct path.
			a = answer{resp: ep.stamp(hit.val, true, ""), role: "hit"}
			rec.Trace().AddChild("cache_hit", 0)
		default:
			// A warm request is bytes out: what stamp and writeJSON make of
			// this entry, encoded once by its first untraced hit.
			rec.SetRole("hit")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(hit.hitBody(ep)) // an error is the client gone
			return
		}
		rec.SetRole(a.role)
		rec.SetRung(a.rung)
		if a.err != nil {
			s.fail(w, http.StatusBadRequest, a.err)
			return
		}
		if trace {
			rec.Trace().End() // the tree /debug/requests/{id} serves too
			e := a.resp.env()
			e.Trace = rec.Trace().Tree()
			e.RequestID, e.AttributionUS = attribution(rec)
		}
		writeJSON(w, http.StatusOK, a.resp)
	}
}
