package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"cqp"
	"cqp/internal/core"
	"cqp/internal/prefspace"
	"cqp/internal/workload"
)

type opKind uint8

const (
	opPersonalize opKind = iota
	opExecute
	opTopK
	opFront
	opBatch
	opProfilePut
	opProfileGet
	numKinds
)

var kindNames = [numKinds]string{"personalize", "execute", "topk", "front", "batch", "profile_put", "profile_get"}

// op is one request of a client's stream, small enough that a
// 600 000-request stream is a few megabytes. The server never sees an op,
// only the request it encodes to.
type op struct {
	profile uint32
	// arg indexes env.bounds for pipeline requests (for a batch, its first
	// item) and is the text variant for a profile PUT.
	arg    uint32
	query  uint16
	kind   opKind
	sample bool // response body kept and checked after the window
}

// bounds is the search context of one pipeline request: the Table-1 problem
// number, the preference cap K and the problem's bounds.
type bounds struct {
	problem                int
	k                      int
	cmax, smin, smax, dmin float64
}

func (b bounds) build() cqp.Problem {
	p, err := cqp.BuildProblem(b.problem, b.cmax, b.smin, b.smax, b.dmin)
	if err != nil {
		panic(err) // generator bug: problem numbers are drawn from 1..6
	}
	return p
}

// splitmix64 derives independent sub-seeds from the run's seed, so the
// database, the profiles, the queries and each client's stream do not share
// a random sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, tag uint64) int64 {
	return int64(splitmix64(uint64(seed)^splitmix64(tag)) >> 1)
}

const (
	tagDB = iota + 1
	tagProfiles
	tagSample
	tagClient // + client index
)

// querySetSeed fixes the query texts. The seed of a run drives the database,
// the profiles and which query each request asks, not the set of queries an
// application has: execution cost differs several-fold between queries, so
// a set redrawn per seed moved every execute_cold metric by ±12% and hid
// anything smaller.
const querySetSeed = 2005

// balancedQueries draws n distinct queries from workload.Queries with a
// fixed shape mix: half over MOVIE alone, a quarter joining DIRECTOR, a
// quarter joining GENRE.
func balancedQueries(n int, seed int64) []*cqp.Query {
	want := map[string]int{"": n - n/4 - n/4, "DIRECTOR": n / 4, "GENRE": n / 4}
	seen := map[string]bool{}
	var out []*cqp.Query
	for pool := 16 * n; len(out) < n; pool *= 2 {
		out = out[:0]
		clear(seen)
		left := map[string]int{}
		for k, v := range want {
			left[k] = v
		}
		for _, q := range workload.Queries(pool, seed) {
			shape := ""
			if len(q.From) > 1 {
				shape = q.From[1]
			}
			if left[shape] == 0 || seen[q.Fingerprint()] {
				continue
			}
			seen[q.Fingerprint()] = true
			left[shape]--
			out = append(out, q)
		}
	}
	return out
}

// profileID names the i-th stored profile.
func profileID(i int) string { return fmt.Sprintf("p%04d", i) }

// profileText is a stored profile's text split so a PUT can change one doi:
// heads[i] is line i up to and including "= ", dois[i] the number after it.
type profileText struct {
	heads []string
	dois  []string
	joins int // leading join-preference lines, which PUT variants leave alone
}

func splitProfileText(p *cqp.Profile) profileText {
	var t profileText
	for _, a := range p.Atoms() {
		line := a.String()
		cut := strings.LastIndex(line, "= ") + 2
		t.heads = append(t.heads, line[:cut])
		t.dois = append(t.dois, line[cut:])
		if !a.IsSelection() && t.joins == len(t.heads)-1 {
			t.joins++
		}
	}
	return t
}

// text renders the profile with one selection preference's doi replaced;
// variant 0 is the text loaded in set-up.
func (t profileText) text(variant uint32) string {
	changed, doi := -1, ""
	if variant != 0 {
		changed = t.joins + int(variant)%(len(t.heads)-t.joins)
		doi = strconv.FormatFloat(float64(1+variant%997)/1000, 'g', -1, 64)
	}
	var b strings.Builder
	for i, h := range t.heads {
		b.WriteString(h)
		if i == changed {
			b.WriteString(doi)
		} else {
			b.WriteString(t.dois[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// generator fills an env's warm-up and timed streams from the seed. It runs
// inside set-up because the cold workloads calibrate every request's bounds
// against that request's own preference space.
type generator struct {
	e    *env
	rng  *rand.Rand // the stream being generated
	keys map[string]bool
}

// space extracts the preference space the server will search for the
// (profile, query) pair when no cost bound prunes it.
func (g *generator) space(profile, query, k int) *prefspace.Space {
	sp, err := prefspace.Build(g.e.queries[query], g.e.profiles[profile], g.e.est, prefspace.Options{MaxK: k})
	if err != nil {
		panic(fmt.Sprintf("benchmark: calibrating profile %d query %d: %v", profile, query, err))
	}
	return sp
}

// feasible is the set-up oracle: it reports whether some subset of at most
// three preferences satisfies the problem. Sufficient, not necessary — a
// request it rejects is redrawn — and sound under the cost-bound pruning
// the server applies: every member of a witness costs no more than cmax, so
// it survives into the pruned space with the same parameters.
func feasible(in *core.Instance, prob cqp.Problem) bool {
	ok := func(set ...int) bool {
		return prob.Feasible(in.SetDoi(set), in.SetCost(set), in.SetSize(set))
	}
	for a := 0; a < in.K; a++ {
		if ok(a) {
			return true
		}
		for b := a + 1; b < in.K; b++ {
			if ok(a, b) {
				return true
			}
			for c := b + 1; c < in.K; c++ {
				if ok(a, b, c) {
					return true
				}
			}
		}
	}
	return false
}

// addBounds stores a request's bounds and returns their index.
func (e *env) addBounds(b bounds) uint32 {
	e.bounds = append(e.bounds, b)
	return uint32(len(e.bounds) - 1)
}

// fresh reports whether the cache key was unseen and records it. The cold
// workloads redraw on a repeat so the result cache can never hit.
func (g *generator) fresh(kind opKind, profile, query int, b bounds) bool {
	key := fmt.Sprintf("%d|%d|%d|%d|%g|%g|%g|%g", kind, profile, query, b.problem, b.cmax, b.smin, b.smax, b.dmin)
	if g.keys[key] {
		return false
	}
	g.keys[key] = true
	return true
}

// coldOp draws a distinct, feasible pipeline request of the given kind and
// problem for the query; u in [0,1) places its bound inside the problem's
// range.
func (g *generator) coldOp(kind opKind, problem, query int, u float64) op {
	k := 20
	if kind != opPersonalize {
		k = 10
	}
	for attempt := 0; ; attempt++ {
		if attempt == 1000 {
			panic(fmt.Sprintf("benchmark: no feasible %s request for problem %d on query %d in 1000 draws", kindNames[kind], problem, query))
		}
		profile := g.rng.Intn(len(g.e.profiles))
		sp := g.space(profile, query, k)
		in := core.FromSpace(sp)
		sup := sp.SupremeCost()
		b := bounds{problem: problem, k: k}
		// Size windows open at one row (the paper's "empty answers are
		// always undesirable") and close at a quarter to a third of the
		// unpersonalized answer.
		window := func() { b.smin, b.smax = 1, sp.BaseSize*(0.25+0.08*u) }
		switch {
		case kind != opPersonalize:
			// Non-binding enough that the search takes ~100µs, binding
			// enough that five to ten sub-queries run.
			b.cmax = (0.5 + 0.5*u) * sup
		case problem == 2:
			// The binding regime of the paper's Figure 12(c). The range
			// stops short of the fractions where C_MaxBounds runs into
			// the 2^20 state budget, which would measure the budget.
			b.cmax = (0.32 + 0.08*u) * sup
		case problem == 3:
			b.cmax = (0.22 + 0.05*u) * sup
			window()
		case problem == 1, problem == 6:
			window()
		case problem == 4:
			b.dmin = 0.99 - 0.09*u
		case problem == 5:
			b.dmin = 0.9 - 0.1*u
			window()
		}
		if feasible(in, b.build()) && g.fresh(kind, profile, query, b) {
			return op{kind: kind, profile: uint32(profile), query: uint16(query), arg: g.e.addBounds(b)}
		}
	}
}

// strata returns n values, one uniformly placed in each of n equal slices of
// [0,1), in random order: the mix of bounds is the same in every block of
// the stream, only the pairing with profiles and queries is random.
func (g *generator) strata(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + g.rng.Float64()) / float64(n)
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deck deals the query indices in shuffled rounds, so every query gets the
// same share of any stretch of the stream.
func (g *generator) deck() func() int {
	var left []int
	return func() int {
		if len(left) == 0 {
			left = g.rng.Perm(len(g.e.queries))
		}
		q := left[0]
		left = left[1:]
		return q
	}
}

// fill generates the warm-up and timed streams of every client. perClient
// is called once per client, after g.rng has been reseeded for it, and
// returns the function that yields the stream's next few ops.
func (g *generator) fill(perClient func() (next func() []op)) {
	e := g.e
	for c := 0; c < clients; c++ {
		g.rng = rand.New(rand.NewSource(subSeed(e.seed, tagClient+uint64(c))))
		sampler := rand.New(rand.NewSource(subSeed(e.seed, tagSample+uint64(c)<<8)))
		next := perClient()
		total := e.warmupOps() + e.timedOps()
		ops := make([]op, 0, total)
		for len(ops) < total {
			ops = append(ops, next()...)
		}
		ops = ops[:total]
		for i := range ops {
			ops[i].sample = sampler.Intn(sampleEvery) == 0
		}
		// Clipped, so that serve_hot's append of its warming pass allocates
		// instead of writing over the start of the timed stream.
		e.warm[c], e.streams[c] = slices.Clip(ops[:e.warmupOps()]), ops[e.warmupOps():]
	}
}

// personalizeCold: blocks of 20 requests — 16 Problem 2, one Problem 3 and
// three of Problems 1/4/5/6 in rotation.
func (g *generator) personalizeCold() {
	g.fill(func() func() []op {
		query := g.deck()
		others, turn := []int{1, 4, 5, 6}, 0
		return func() []op {
			problems := []int{3}
			for i := 0; i < 16; i++ {
				problems = append(problems, 2)
			}
			for i := 0; i < 3; i++ {
				problems = append(problems, others[turn%len(others)])
				turn++
			}
			g.rng.Shuffle(len(problems), func(i, j int) { problems[i], problems[j] = problems[j], problems[i] })
			u := g.strata(len(problems))
			block := make([]op, len(problems))
			for i, p := range problems {
				block[i] = g.coldOp(opPersonalize, p, query(), u[i])
			}
			return block
		}
	})
}

// executeCold: blocks of 20 requests, 16 /execute and four /topk.
func (g *generator) executeCold() {
	g.fill(func() func() []op {
		query := g.deck()
		return func() []op {
			u := g.strata(20)
			block := make([]op, len(u))
			for i, topk := range g.rng.Perm(len(u)) {
				kind := opExecute
				if topk < 4 {
					kind = opTopK
				}
				block[i] = g.coldOp(kind, 2, query(), u[i])
			}
			return block
		}
	})
}

// hotKinds are the cached endpoints of serve_hot: how many queries each
// profile asks of them (8+4+2+1 = 15 keys per profile, 480 at 32 profiles),
// their share of the stream, and their K and cost bound as a fraction of the
// Supreme Cost. A batch asks for a profile's batchItems /personalize keys.
var hotKinds = []struct {
	kind    opKind
	queries int
	share   int // percent of the stream
	k       int
	frac    float64
}{
	{opPersonalize, batchItems, 55, 20, 0.3},
	{opExecute, 4, 25, 10, 0.75},
	{opTopK, 2, 8, 10, 0.75},
	{opFront, 1, 4, 20, 0.3},
}

// serveHot: one bounds entry per cache key and a stream that draws keys
// uniformly under the endpoint mix; 3% batches of a profile's eight
// /personalize keys and 5% profile GETs make up the rest.
func (g *generator) serveHot() {
	e := g.e
	first := map[opKind]uint32{}
	key := func(kind opKind, queries, p, q int) op {
		return op{kind: kind, profile: uint32(p), query: uint16(q), arg: first[kind] + uint32(p*queries+q)}
	}
	var all []op
	for _, h := range hotKinds {
		first[h.kind] = uint32(len(e.bounds))
		for p := range e.profiles {
			for q := 0; q < h.queries; q++ {
				e.addBounds(bounds{problem: 2, k: h.k, cmax: h.frac * g.space(p, q, h.k).SupremeCost()})
				all = append(all, key(h.kind, h.queries, p, q))
			}
		}
	}
	g.fill(func() func() []op {
		return func() []op {
			r := g.rng.Intn(100)
			p := g.rng.Intn(len(e.profiles))
			for _, h := range hotKinds {
				if r < h.share {
					return []op{key(h.kind, h.queries, p, g.rng.Intn(h.queries))}
				}
				r -= h.share
			}
			if r < 3 {
				return []op{{kind: opBatch, profile: uint32(p), arg: first[opPersonalize] + uint32(p*batchItems)}}
			}
			return []op{{kind: opProfileGet, profile: uint32(p)}}
		}
	})
	// Warm-up is one pass over every key, split between the clients.
	for i, o := range all {
		e.warm[i%clients] = append(e.warm[i%clients], o)
	}
}

// profileChurn: profiles by Zipf(1.1), queries uniformly; 80% /personalize
// with a bound that never binds, 15% PUT of a one-doi-changed text, 5% GET.
func (g *generator) profileChurn() {
	e := g.e
	shared := e.addBounds(bounds{problem: 2, k: 20, cmax: nonBinding})
	g.fill(func() func() []op {
		zipf := rand.NewZipf(g.rng, 1.1, 1, uint64(len(e.profiles)-1))
		return func() []op {
			p := uint32(zipf.Uint64())
			switch r := g.rng.Intn(100); {
			case r < 80:
				return []op{{kind: opPersonalize, profile: p, query: uint16(g.rng.Intn(len(e.queries))), arg: shared}}
			case r < 95:
				return []op{{kind: opProfilePut, profile: p, arg: 1 + uint32(g.rng.Intn(1<<20))}}
			}
			return []op{{kind: opProfileGet, profile: p}}
		}
	})
}

// request encodes an op as the HTTP request the server receives, appending
// the body to dst.
func (e *env) request(dst []byte, o op) (method, path string, body []byte) {
	switch o.kind {
	case opProfileGet:
		return "GET", "/profiles/" + profileID(int(o.profile)), dst
	case opProfilePut:
		return "PUT", "/profiles/" + profileID(int(o.profile)), append(dst, e.texts[o.profile].text(o.arg)...)
	case opBatch:
		dst = append(dst, `{"items":[`...)
		for i := 0; i < batchItems; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = e.appendItem(dst, op{kind: opPersonalize, profile: o.profile, query: uint16(i), arg: o.arg + uint32(i)})
		}
		return "POST", "/personalize/batch", append(dst, "]}"...)
	}
	return "POST", "/" + kindNames[o.kind], e.appendItem(dst, o)
}

// appendItem encodes one pipeline request body.
func (e *env) appendItem(dst []byte, o op) []byte {
	b := e.bounds[o.arg]
	dst = append(dst, `{"sql":`...)
	dst = append(dst, e.sqlJSON[o.query]...)
	dst = append(dst, `,"profile_id":"`...)
	dst = append(dst, profileID(int(o.profile))...)
	dst = append(dst, '"')
	num := func(name string, v float64) {
		dst = append(dst, `,"`...)
		dst = append(dst, name...)
		dst = append(dst, `":`...)
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	switch o.kind {
	case opTopK:
		num("cmax_ms", b.cmax)
		num("k", topkAnswers)
		num("max_k", float64(b.k))
	case opFront:
		num("cmax_ms", b.cmax)
		num("max_points", frontPoints)
		num("k", float64(b.k))
	default:
		num("k", float64(b.k))
		if o.kind == opExecute {
			num("limit", executeLimit)
		}
		dst = append(dst, `,"problem":{"number":`...)
		dst = strconv.AppendInt(dst, int64(b.problem), 10)
		num("cmax_ms", b.cmax)
		num("smin", b.smin)
		num("smax", b.smax)
		num("dmin", b.dmin)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}
