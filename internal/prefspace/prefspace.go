// Package prefspace implements the paper's Preference Space module
// (Section 4.4, Figure 3): given a query Q and a user profile U, it
// extracts the set P of atomic and implicit selection preferences related
// to Q in decreasing order of doi, each with its estimated cost and size
// parameters. The paper's D vector is the identity over P; the C vector
// the cost searches walk is derived from P's costs by core's CostOrder.
//
// The traversal is best-first over the personalization graph: a priority
// queue of candidate paths ordered by doi. Because f⊗ is non-increasing in
// path length (Formula 2), candidates pop in globally non-increasing doi
// order, so P is produced already sorted. One divergence from the published
// pseudocode: Figure 3's step 3.3 exits the whole loop when the head
// violates the CQP constraints; since cost is not aligned with the doi
// ordering, we skip the candidate and continue instead (pruning remains
// sound — cost is monotone under path extension, so a too-expensive path
// can never become feasible again).
package prefspace

import (
	"context"
	"fmt"
	"math"
	"time"

	"cqp/internal/estimate"
	"cqp/internal/obs"
	"cqp/internal/prefs"
	"cqp/internal/query"
)

// Pref is one element of the preference set P: an implicit (or atomic)
// selection preference with its estimated parameters relative to Q.
type Pref struct {
	Imp prefs.Implicit
	// Doi is the composed degree of interest (copied from Imp for locality).
	Doi float64
	// Cost is cost(Q ∧ p) in milliseconds (Formula 11): the cost of the
	// sub-query that integrates just this preference into Q.
	Cost float64
	// Shrink is the multiplicative size factor of conjoining p (≤ 1):
	// size(Q ∧ p) = size(Q) × Shrink.
	Shrink float64
}

// Space is the output of the Preference Space module.
type Space struct {
	// Query is the original query Q.
	Query *query.Query
	// BaseCost and BaseSize are cost(Q) and size(Q) estimates.
	BaseCost float64
	BaseSize float64
	// P holds the preferences in decreasing doi order.
	P []Pref
	// K is len(P).
	K int
	// Estimate is a traced build's account of its estimator calls; nil on
	// an untraced build. The caller hangs it under the span it laps the
	// build with.
	Estimate *EstimateTally
}

// Options tunes preference extraction.
type Options struct {
	// MaxK caps the number of preferences extracted (the paper's K
	// experiment parameter). 0 means no cap.
	MaxK int
	// CostMax prunes candidates whose single-preference sub-query already
	// exceeds this bound in milliseconds (sound for upper-bounded cost
	// problems since cost is monotone). 0 disables the pruning.
	CostMax float64
}

// maxPathLen bounds the join-path length to keep traversal finite on
// profiles with long join chains.
const maxPathLen = 4

// candidate is a queue entry: a join path under construction or a completed
// implicit preference. Atoms are named by their position in the profile,
// the join path so far by its span in the build's pathSlab.
type candidate struct {
	doi   float64
	seq   int // FIFO tie-break for determinism
	at, n int // join path: pathSlab span, shared, read-only; n = 0 for none
	sel   int // terminal selection; -1 while still a path
}

// pathSlab holds the candidates' join paths, each written once as a span of
// atoms and, in step, of their join conditions. The hops of a span are the
// Path of every preference on that path. The slab only appends: a span is
// never written again, and one handed out as a Path stays valid when the
// slab moves.
type pathSlab struct {
	atoms []prefs.Atomic
	hops  []prefs.JoinCond
}

// extend writes the path at, n followed by the join atom a as a new span
// and returns where it starts.
func (s *pathSlab) extend(at, n int, a prefs.Atomic) int {
	start := len(s.atoms)
	s.atoms = append(append(s.atoms, s.atoms[at:at+n]...), a)
	s.hops = append(append(s.hops, s.hops[at:at+n]...), *a.Join)
	return start
}

func (s *pathSlab) path(c candidate) []prefs.Atomic { return s.atoms[c.at : c.at+c.n] }

func (s *pathSlab) pathHops(c candidate) []prefs.JoinCond {
	return s.hops[c.at : c.at+c.n : c.at+c.n]
}

// candQueue is a binary max-heap of candidates by doi, ties broken by push
// order. The order is strict and total, so the pop sequence does not depend
// on how the heap arranges its elements.
type candQueue struct {
	h      []candidate
	pushed int
}

func (q *candQueue) before(i, j int) bool {
	if q.h[i].doi != q.h[j].doi {
		return q.h[i].doi > q.h[j].doi
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *candQueue) push(c candidate) {
	c.seq = q.pushed
	q.pushed++
	q.h = append(q.h, c)
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *candQueue) pop() candidate {
	top, last := q.h[0], len(q.h)-1
	q.h[0], q.h[last] = q.h[last], candidate{}
	q.h = q.h[:last]
	for i := 0; ; {
		best := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if q.before(c, best) {
				best = c
			}
		}
		if best == i {
			return top
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
}

// EstimateTally is a traced build's account of the estimator entry points it
// ran and the wall time it spent in them; nil, and free, on an untraced build.
type EstimateTally struct {
	Calls int
	Spent time.Duration
}

func (t *EstimateTally) start() (t0 time.Time) {
	if t != nil {
		t0 = time.Now()
	}
	return t0
}

func (t *EstimateTally) done(calls int, t0 time.Time) {
	if t != nil {
		t.Calls += calls
		t.Spent += time.Since(t0)
	}
}

// Build runs the Preference Space algorithm without a context (it cannot
// be canceled mid-extraction). See BuildContext.
func Build(q *query.Query, profile *prefs.Profile, est *estimate.Estimator, opt Options) (*Space, error) {
	return BuildContext(context.Background(), q, profile, est, opt)
}

// BuildContext runs the Preference Space algorithm: one best-first loop that
// estimates each selection as it pops. The estimations of Formula 6 are
// independent of one another, but at ≈ 0.3 µs each they are too small to
// hand to another goroutine (DESIGN §10), and most come from the estimator's
// memo. A canceled ctx aborts between estimations with ctx's error.
//
// The build allocates per block, not per preference: candidate paths and
// the preferences' Paths come from a pathSlab, and their condition texts
// from one prefs.Arena, both sized at the start for the usual extraction.
func BuildContext(ctx context.Context, q *query.Query, profile *prefs.Profile, est *estimate.Estimator, opt Options) (*Space, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("prefspace: query has no relations")
	}
	if err := est.CheckFault(); err != nil {
		return nil, fmt.Errorf("prefspace: base query estimate: %w", err)
	}
	// Estimation is interleaved with extraction, with no interval of its own
	// to wrap: a traced build keeps its own account, whoever else shares the
	// Estimator, and returns it on the Space.
	sp := &Space{Query: q}
	if obs.FromContext(ctx) != nil {
		sp.Estimate = &EstimateTally{}
	}
	tally := sp.Estimate
	t0 := tally.start()
	sp.BaseCost, sp.BaseSize = est.QueryCost(q), est.QuerySize(q)
	tally.done(2, t0)
	if opt.MaxK > 0 {
		sp.P = make([]Pref, 0, opt.MaxK)
	}

	qp := candQueue{h: make([]candidate, 0, profile.Len())}
	// A K = 20 build over the generated profiles writes five path atoms
	// and carves a median of 545 bytes of text (99th percentile 980). A
	// text block that runs out is replaced by one twice its size, so the
	// first is sized near the tail, not the median.
	want := profile.Len()
	if opt.MaxK > 0 {
		want = min(want, opt.MaxK)
	}
	var arena prefs.Arena
	arena.Grow(50 * want)
	paths := pathSlab{atoms: make([]prefs.Atomic, 0, 8), hops: make([]prefs.JoinCond, 0, 8)}
	// Step 2: seed with atomic preferences syntactically related to Q.
	for _, rel := range q.From {
		for _, i := range profile.SelectionsOn(rel) {
			qp.push(candidate{doi: profile.Atom(i).Doi, sel: i})
		}
		for _, i := range profile.JoinsFrom(rel) {
			a := profile.Atom(i)
			qp.push(candidate{doi: a.Doi, at: paths.extend(0, 0, a), n: 1, sel: -1})
		}
	}

	// Step 3: best-first expansion (Figure 3). A popped selection is a
	// complete preference: estimated and, unless the CostMax filter rejects
	// it, committed at once. A popped join path is expanded through the
	// preferences adjacent to its end.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("prefspace: %w", err)
	}
	scope := est.ScopeKey(q)
	for len(qp.h) > 0 && (opt.MaxK <= 0 || sp.K < opt.MaxK) {
		c := qp.pop()
		if c.sel >= 0 {
			imp, err := arena.Implicit(paths.path(c), paths.pathHops(c), profile.Atom(c.sel))
			if err != nil {
				return nil, fmt.Errorf("prefspace: %v", err)
			}
			cost, shrink, err := prefParams(ctx, est, q, scope, imp, tally)
			if err != nil {
				return nil, fmt.Errorf("prefspace: estimating preference %d: %w", sp.K, err)
			}
			if opt.CostMax > 0 && cost > opt.CostMax {
				continue // can never participate in a feasible query
			}
			sp.P = append(sp.P, Pref{Imp: imp, Doi: imp.Doi, Cost: cost, Shrink: shrink})
			sp.K++
			continue
		}
		end := paths.hops[c.at+c.n-1].Right.Relation
		if opt.CostMax > 0 {
			// The sub-query cost of the partial path, without its terminal
			// selection: the selection adds no relations beyond the path.
			t0 := tally.start()
			cost := est.SubQueryCost(q, prefs.Implicit{Path: paths.pathHops(c)})
			tally.done(1, t0)
			if cost > opt.CostMax {
				continue // extensions only get more expensive
			}
		}
		for _, i := range profile.SelectionsOn(end) {
			qp.push(candidate{doi: prefs.Compose(c.doi, profile.Atom(i).Doi), at: c.at, n: c.n, sel: i})
		}
		if c.n >= maxPathLen {
			continue
		}
		for _, i := range profile.JoinsFrom(end) {
			a := profile.Atom(i)
			if revisits(paths.path(c), a.Join.Right.Relation) {
				continue // acyclicity (Figure 3's "p ∧ pi is acyclic")
			}
			qp.push(candidate{doi: prefs.Compose(c.doi, a.Doi), at: paths.extend(c.at, c.n, a), n: c.n + 1, sel: -1})
		}
	}
	return sp, nil
}

// prefParams returns cost(Q ∧ p) and p's shrink factor. A pair this
// Estimator computed before comes from its cross-request memo, skipping the
// estimate.histogram fault poll and the catalog reads — exactly the work the
// memo exists to elide (the pair was computed against this same immutable
// catalog). Otherwise ctx and the fault point are polled, the pair is computed
// and stored, and the tally is charged its two calls.
func prefParams(ctx context.Context, est *estimate.Estimator, q *query.Query, scope string, imp prefs.Implicit, tally *EstimateTally) (cost, shrink float64, err error) {
	if cost, shrink, ok := est.PrefParams(scope, imp); ok {
		return cost, shrink, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	if err := est.CheckFault(); err != nil {
		return 0, 0, err
	}
	t0 := tally.start()
	cost, shrink = est.SubQueryCost(q, imp), est.Shrink(q, imp)
	tally.done(2, t0)
	est.StorePrefParams(scope, imp, cost, shrink)
	return cost, shrink, nil
}

// revisits reports whether the path already touches the relation.
func revisits(path []prefs.Atomic, rel string) bool {
	if path[0].Join.Left.Relation == rel {
		return true
	}
	for _, a := range path {
		if a.Join.Right.Relation == rel {
			return true
		}
	}
	return false
}

// Strings renders the preferences at the positions in set in profile terms
// (Implicit.String), the texts sliced out of one buffer.
func (sp *Space) Strings(set []int) []string {
	return prefs.AppendStrings(make([]string, 0, len(set)), len(set),
		func(k int) prefs.Implicit { return sp.P[set[k]].Imp })
}

// SupremeCost is the cost of incorporating all K preferences — the paper's
// "Supreme Cost" against which cmax percentages are defined (Section 7.2).
// With no preferences it degenerates to the base query cost.
func (sp *Space) SupremeCost() float64 {
	if sp.K == 0 {
		return sp.BaseCost
	}
	c := 0.0
	for _, p := range sp.P {
		c += p.Cost
	}
	return c
}

// Validate checks the structural invariants the search algorithms rely on:
// P sorted by non-increasing doi, parameters finite and within range.
func (sp *Space) Validate() error {
	if sp.K != len(sp.P) {
		return fmt.Errorf("prefspace: K=%d but len(P)=%d", sp.K, len(sp.P))
	}
	for i, p := range sp.P {
		if p.Doi < 0 || p.Doi > 1 || math.IsNaN(p.Doi) {
			return fmt.Errorf("prefspace: P[%d] doi %g out of range", i, p.Doi)
		}
		if p.Cost < 0 || math.IsInf(p.Cost, 0) || math.IsNaN(p.Cost) {
			return fmt.Errorf("prefspace: P[%d] cost %g invalid", i, p.Cost)
		}
		if p.Shrink < 0 || p.Shrink > 1 {
			return fmt.Errorf("prefspace: P[%d] shrink %g out of [0,1]", i, p.Shrink)
		}
		if i > 0 && sp.P[i-1].Doi < p.Doi-1e-12 {
			return fmt.Errorf("prefspace: P not sorted by doi at %d", i)
		}
	}
	return nil
}
