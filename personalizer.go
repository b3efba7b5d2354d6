package cqp

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/catalog"
	"cqp/internal/core"
	"cqp/internal/estimate"
	"cqp/internal/exec"
	"cqp/internal/obs"
	"cqp/internal/prefspace"
	"cqp/internal/rewrite"
	"cqp/internal/storage"
)

// ErrInfeasible reports that no preference subset satisfies the problem's
// constraints (Definition 2 has an empty feasible region for this query and
// profile). The Personalize family wraps it with the concrete problem; test
// with errors.Is.
var ErrInfeasible = errors.New("cqp: no personalized query satisfies the problem")

// Personalizer wires the CQP pipeline of the paper's Figure 2 over one
// database: Preference Space extraction, Parameter Estimation, State Space
// Search, and Personalized Query Construction.
//
// A Personalizer is safe for concurrent use: many goroutines may call the
// Personalize* family while another calls Refresh or Observe. A running
// personalization keeps the estimator it started with; calls that begin
// after a Refresh see the rebuilt statistics.
type Personalizer struct {
	db *storage.DB

	mu      sync.RWMutex // guards est, metrics, acc replacement
	est     *estimate.Estimator
	metrics *obs.Registry
	acc     *obs.Accuracy
	// memoOff disables the per-preference estimate memo on the current and
	// every future estimator (see SetEstimateMemo).
	memoOff bool

	gen atomic.Uint64 // statistics generation, bumped by Refresh
}

// NewPersonalizer builds a personalizer over the database, collecting
// statistics immediately. Call Refresh after bulk-loading more data. It
// panics if the statistics scan fails, which only a persistent backend can
// make happen — serving daemons use NewPersonalizerWith and handle the
// error instead.
func NewPersonalizer(db *DB) *Personalizer {
	p, err := NewPersonalizerWith(db)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPersonalizerWith is NewPersonalizer surfacing statistics-scan
// failures (possible when the database is served by the persistent
// block-store backend) instead of panicking.
func NewPersonalizerWith(db *DB) (*Personalizer, error) {
	p := &Personalizer{db: db}
	if err := p.Refresh(); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh rebuilds catalog statistics (cardinalities, block counts, value
// frequencies) from the current table contents and advances Generation.
// Safe to call during live traffic: in-flight personalizations finish on
// the statistics they started with. On a failed statistics scan (possible
// only with a persistent backend) the previous estimator stays in place,
// Generation does not advance, and the error is returned.
func (p *Personalizer) Refresh() error {
	cat, err := catalog.Build(p.db)
	if err != nil {
		return fmt.Errorf("cqp: refresh statistics: %w", err)
	}
	est := estimate.New(cat, estimate.DefaultBlockMillis)
	p.mu.Lock()
	p.est = est
	if p.memoOff {
		p.est.DisableMemo()
	}
	if p.metrics != nil {
		p.est.ObserveMemo(p.metrics)
	}
	p.mu.Unlock()
	p.gen.Add(1)
	return nil
}

// SetEstimateMemo switches the cross-request per-preference estimate memo
// on or off, now and across future Refreshes. It is on by default; the off
// switch is the private reference tests and the benchmark's memo_cold rows
// compare the memo against.
func (p *Personalizer) SetEstimateMemo(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memoOff = !on
	if !on {
		p.est.DisableMemo()
	}
}

// EstimateMemoCounts reports the current estimator's memo hit/miss totals
// (zeros while the memo is disabled). Counts reset on Refresh — the memo
// dies with its statistics generation.
func (p *Personalizer) EstimateMemoCounts() (hits, misses int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.est.MemoCounts()
}

// Generation returns the statistics generation: 1 after construction,
// incremented by every Refresh. Caches keyed on personalization output
// include it so a Refresh invalidates them.
func (p *Personalizer) Generation() uint64 { return p.gen.Load() }

// Observe attaches a metrics registry to the whole pipeline: storage scans,
// executor unions, search runs and estimator accuracy all record into reg
// from here on. Passing nil detaches (instrumentation reverts to no-ops).
func (p *Personalizer) Observe(reg *obs.Registry) {
	p.mu.Lock()
	p.metrics = reg
	p.db.SetMetrics(reg)
	p.acc = obs.NewAccuracy(reg)
	p.est.ObserveMemo(reg)
	p.mu.Unlock()
}

// pipeline snapshots the replaceable pipeline state under the read lock so
// one call runs against a coherent (estimator, registry, accuracy) triple
// even when Refresh or Observe swaps them mid-flight.
func (p *Personalizer) pipeline() (*estimate.Estimator, *obs.Registry, *obs.Accuracy) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.est, p.metrics, p.acc
}

// Metrics returns the attached registry (nil when observability is off).
func (p *Personalizer) Metrics() *obs.Registry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.metrics
}

// EstimatorAccuracy summarizes estimated-versus-actual cost and size over
// the personalized queries executed since Observe.
func (p *Personalizer) EstimatorAccuracy() obs.AccuracySummary {
	p.mu.RLock()
	acc := p.acc
	p.mu.RUnlock()
	return acc.Summary()
}

// options collects per-call settings.
type options struct {
	algorithm string
	maxK      int
	anyMatch  bool
	merge     bool
	budget    int
}

// defaultOptions is the single source of the per-call knob defaults.
// PersonalizeContext, PersonalizeFrontContext and BatchItem.identity
// all resolve options through it, so batch-dedup identity can never drift
// from the defaults the pipeline actually runs — a default changed in one
// site used to silently merge batch items whose effective behavior
// differed.
func defaultOptions() options {
	return options{maxK: 20, budget: 1 << 20}
}

// Option customizes one Personalize call.
type Option func(*options)

// WithAlgorithm runs one of the paper's Problem-2 algorithms by its figure
// name (see AlgorithmNames), "EXHAUSTIVE" for ground-truth enumeration on
// small K, or "BRANCH-BOUND". Without it every problem is solved by the
// exact branch-and-bound; on problems other than Problem 2 a valid name
// changes nothing, and an unknown one is an error on all six.
func WithAlgorithm(name string) Option { return func(o *options) { o.algorithm = name } }

// WithMaxK caps the number of preferences extracted from the profile
// (default 20, the paper's default K).
func WithMaxK(k int) Option { return func(o *options) { o.maxK = k } }

// WithAnyMatch builds the personalized query with HAVING COUNT(*) >= 1 and
// doi-ranked results instead of the paper's all-match intersection.
func WithAnyMatch() Option { return func(o *options) { o.anyMatch = true } }

// WithMergedSubQueries combines preferences that share a functional join
// path into one sub-query (the optimization of the paper's footnote 1),
// reducing the personalized query's I/O without changing its all-match
// answer. Incompatible with WithAnyMatch.
func WithMergedSubQueries() Option { return func(o *options) { o.merge = true } }

// WithStateBudget caps the states a search may visit. The default is 2^20
// states, which keeps even the paper's deliberately slow algorithms
// responsive; pass n ≤ 0 for an unlimited (paper-faithful) search.
func WithStateBudget(n int) Option { return func(o *options) { o.budget = n } }

// Result is the outcome of one personalization.
type Result struct {
	// Solution reports the chosen preference subset and its estimated
	// doi/cost/size.
	Solution Solution
	// SQL is the personalized query in the paper's union form.
	SQL string
	// Preferences lists the chosen preferences in profile terms
	// ("doi(<condition>) = <doi>").
	Preferences []string
	// PreferenceDois holds the chosen preferences' degrees of interest,
	// aligned with Preferences.
	PreferenceDois []float64
	// Supreme reports the supreme cost (all K preferences) for context.
	Supreme float64

	db          *storage.DB
	pq          *rewrite.Personalized
	sp          *prefspace.Space
	prob        Problem
	acc         *obs.Accuracy
	blockMillis float64
}

// Execute runs the personalized query on the database, returning ranked
// rows.
func (r *Result) Execute() (*exec.UnionResult, error) {
	return r.ExecuteContext(context.Background())
}

// ExecuteContext is Execute with tracing: when ctx carries a trace it laps
// an "execute" span laid out like the executor's union plan — attributes
// base (hit, fill or subqueries: how the store's base cache served B),
// bitmaps_hit and bitmaps_built (the sub-queries whose group bitmaps it had
// and built), marks_hit and marks_built (the row marks those builds read
// and computed), base_time and rank, and one "subquery[i]" child per
// sub-query (the build of its bitmap, zero on a hit; on the fallback, that
// sub-query's evaluation), so the children are not additive. Every execution also
// feeds the estimator-accuracy tracker (when the personalizer observes a
// registry) with estimated versus actual cost and size — the live
// counterpart of the paper's Figure 15 comparison — and an all-match
// execution is checked against the problem's own bounds:
// cqp_constraint_violation_total{param="cost"|"size"} counts the answers
// whose real cost exceeded cmax or whose size fell outside [smin, smax].
func (r *Result) ExecuteContext(ctx context.Context) (*exec.UnionResult, error) {
	return r.execute(ctx, func(ctx context.Context) (*exec.UnionResult, error) { return r.pq.ExecuteContext(ctx, r.db) })
}

// ExecuteTopKContext is ExecuteContext keeping only the k best-ranked
// rows via the executor's bounded heap — the full ranked answer never
// materializes. It is accounted as ExecuteContext is, by the size of the
// whole answer (UnionResult.Total), not by the rows kept.
func (r *Result) ExecuteTopKContext(ctx context.Context, k int) (*exec.UnionResult, error) {
	return r.execute(ctx, func(ctx context.Context) (*exec.UnionResult, error) {
		return r.pq.ExecuteTopKContext(ctx, r.db, k)
	})
}

// execute runs the personalized query and accounts for it.
func (r *Result) execute(ctx context.Context, run func(context.Context) (*exec.UnionResult, error)) (*exec.UnionResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: execute: %w", err)
	}
	lp := obs.StartLaps(ctx)
	var how *exec.Report // only a traced execution asks how it ran
	if obs.FromContext(ctx) != nil {
		how = new(exec.Report)
		ctx = exec.WithReport(ctx, how)
	}
	res, err := run(ctx)
	if err != nil {
		lp.Lap(obs.PhaseExecute)
		return nil, err
	}
	b := time.Duration(r.blockMillis * float64(time.Millisecond))
	actMS := float64(exec.RealCost(res.BlockReads, res.Elapsed, b)) / float64(time.Millisecond)
	rows := float64(res.Total)
	r.acc.Record(r.Solution.Cost, actMS, r.Solution.Size, rows)
	// The bounds speak of the all-match answer; an any-match answer is not it.
	if reg := r.db.Metrics(); reg != nil && r.pq.AllMatch {
		if r.prob.CostMax > 0 && actMS > r.prob.CostMax {
			reg.Counter("cqp_constraint_violation_total", "param", "cost").Inc()
		}
		if rows < r.prob.SizeMin || (r.prob.SizeMax > 0 && rows > r.prob.SizeMax) {
			reg.Counter("cqp_constraint_violation_total", "param", "size").Inc()
		}
	}
	var own []obs.Attr // only a traced execution has a span to annotate
	if how != nil {
		own = []obs.Attr{{Key: "rows", Value: strconv.Itoa(res.Total)}, {Key: "blocks", Value: strconv.FormatInt(res.BlockReads, 10)},
			{Key: "base", Value: how.Base}, {Key: "bitmaps_hit", Value: strconv.Itoa(how.BitmapsHit)},
			{Key: "bitmaps_built", Value: strconv.Itoa(how.BitmapsBuilt)}, {Key: "marks_hit", Value: strconv.Itoa(how.MarksHit)},
			{Key: "marks_built", Value: strconv.Itoa(how.MarksBuilt)}, {Key: "base_time", Value: obs.FormatDuration(res.Base)},
			{Key: "rank", Value: obs.FormatDuration(res.Rank)}}
	}
	if span := lp.Lap(obs.PhaseExecute, own...); span != nil {
		attrs := make([]obs.Attr, 0, 2*len(res.Subs))
		span.AddChildren(len(res.Subs), func(i int) (string, time.Duration, []obs.Attr) {
			s := &res.Subs[i]
			attrs = append(attrs,
				obs.Attr{Key: "rows", Value: strconv.Itoa(s.Rows)},
				obs.Attr{Key: "blocks", Value: strconv.FormatInt(s.BlockReads, 10)})
			return subqueryName(i), s.Elapsed, attrs[2*i : 2*i+2 : 2*i+2]
		})
	}
	return res, nil
}

// subqueryNames are the execute span's first children's names, written once.
var subqueryNames = func() (names [64]string) {
	for i := range names {
		names[i] = "subquery[" + strconv.Itoa(i) + "]"
	}
	return names
}()

// subqueryName is the execute span's name for sub-query i's child.
func subqueryName(i int) string {
	if i < len(subqueryNames) {
		return subqueryNames[i]
	}
	return "subquery[" + strconv.Itoa(i) + "]"
}

// Explain renders a human-readable account of the personalization: the
// problem solved, every candidate preference with its parameters, whether
// it was integrated, and how much of each bound the solution consumes.
func (r *Result) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "problem: %s\n", r.prob)
	fmt.Fprintf(&b, "solver:  %s (%d states, %s)\n",
		r.Solution.Stats.Algorithm, r.Solution.Stats.StatesVisited,
		obs.FormatDuration(r.Solution.Stats.Duration))
	chosen := make(map[int]bool, len(r.Solution.Set))
	for _, i := range r.Solution.Set {
		chosen[i] = true
	}
	fmt.Fprintf(&b, "candidates (K = %d, by doi):\n", r.sp.K)
	for i, pref := range r.sp.P {
		mark := " "
		if chosen[i] {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s doi %-8.4f cost %6.0fms  size ×%-7.4f %s\n",
			mark, pref.Doi, pref.Cost, pref.Shrink, pref.Imp.Condition())
	}
	fmt.Fprintf(&b, "solution: %d/%d preferences, doi %.4f, cost %.0f ms, est. size %.1f rows\n",
		len(r.Solution.Set), r.sp.K, r.Solution.Doi, r.Solution.Cost, r.Solution.Size)
	if r.prob.CostMax > 0 {
		fmt.Fprintf(&b, "cost bound: %.0f of %.0f ms used (%.0f%%); all %d preferences would cost %.0f ms\n",
			r.Solution.Cost, r.prob.CostMax, 100*r.Solution.Cost/r.prob.CostMax, r.sp.K, r.Supreme)
	}
	if r.prob.DoiMin > 0 {
		fmt.Fprintf(&b, "doi bound: %.4f against required %.4f\n", r.Solution.Doi, r.prob.DoiMin)
	}
	if r.prob.SizeMin > 0 || r.prob.SizeMax > 0 {
		fmt.Fprintf(&b, "size window: %.1f rows within [%g, %g]\n",
			r.Solution.Size, r.prob.SizeMin, r.prob.SizeMax)
	}
	if r.Solution.Stats.Truncated {
		b.WriteString("note: search hit its state budget; the answer is best-found, not proven optimal\n")
	}
	return b.String()
}

// Personalize runs the CQP pipeline: extract the preferences of profile u
// related to q, search for the optimal subset under the problem's
// objective and constraints, and construct the personalized query.
func (p *Personalizer) Personalize(q *Query, u *Profile, prob Problem, opts ...Option) (*Result, error) {
	return p.PersonalizeContext(context.Background(), q, u, prob, opts...)
}

// PersonalizeContext is Personalize with tracing: each Figure-2 phase is a
// lap of one clock, charged to the context's flight record and, when ctx
// carries a trace (see StartTrace), recorded as one span — prefspace (with
// the estimator calls its build made as an "estimate" child), search, and
// construct; ExecuteContext adds execute. Without a trace in ctx the call
// behaves exactly like Personalize.
func (p *Personalizer) PersonalizeContext(ctx context.Context, q *Query, u *Profile, prob Problem, opts ...Option) (*Result, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if err := q.Validate(p.db.Schema()); err != nil {
		return nil, err
	}
	if err := u.Validate(p.db.Schema()); err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	// Option compatibility is validated up front: rejecting merge+anyMatch
	// only at construction time would waste the whole extraction and search.
	if o.merge && o.anyMatch {
		return nil, fmt.Errorf("cqp: merged sub-queries require all-match semantics")
	}
	est, metrics, acc := p.pipeline()
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "personalize")
	defer span.End()
	// Deadline checks sit at the Figure-2 phase boundaries: a canceled or
	// expired context aborts before the next phase starts (the daemon's
	// per-request deadlines ride on this).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: personalize: %w", err)
	}
	lp := obs.StartLaps(ctx)

	sp, err := buildSpace(ctx, &lp, q, u, est, prefspace.Options{MaxK: o.maxK, CostMax: prob.CostMax})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: personalize: %w", err)
	}

	in := core.FromSpace(sp)
	in.StateBudget = o.budget
	sol, err := core.Solve(in, prob, o.algorithm)
	if err != nil {
		lp.Lap(obs.PhaseSearch)
		return nil, err
	}
	recordSearchStats(metrics, sol.Stats)
	var searched []obs.Attr // only a traced search has a span to annotate
	if span != nil {
		searched = append(make([]obs.Attr, 0, 3),
			obs.Attr{Key: "algorithm", Value: sol.Stats.Algorithm},
			obs.Attr{Key: "states", Value: strconv.Itoa(sol.Stats.StatesVisited)})
		if sol.Stats.Truncated {
			searched = append(searched, obs.Attr{Key: "truncated", Value: "true"})
		}
	}
	lp.Lap(obs.PhaseSearch, searched...)
	if !sol.Feasible {
		return nil, fmt.Errorf("%w (%s)", ErrInfeasible, prob)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: personalize: %w", err)
	}

	chosen := make([]prefspace.Pref, 0, len(sol.Set))
	prefDois := make([]float64, 0, len(sol.Set))
	for _, i := range sol.Set {
		chosen = append(chosen, sp.P[i])
		prefDois = append(prefDois, sp.P[i].Doi)
	}
	var pq *rewrite.Personalized
	if o.merge {
		pq = rewrite.ConstructMerged(q, chosen, p.db.Schema())
	} else {
		pq = rewrite.Construct(q, chosen, !o.anyMatch)
	}
	if reg := metrics; reg != nil {
		reg.Counter("personalize_total").Inc()
		reg.Histogram("personalize_ms", obs.DurationBucketsMS).
			Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	res := &Result{
		Solution:       sol,
		SQL:            pq.SQL(),
		Preferences:    sp.Strings(sol.Set),
		PreferenceDois: prefDois,
		Supreme:        sp.SupremeCost(),
		db:             p.db,
		pq:             pq,
		sp:             sp,
		prob:           prob,
		acc:            acc,
		blockMillis:    est.BlockMillis,
	}
	lp.Lap(obs.PhaseConstruct, obs.Attr{Key: "subqueries", Value: strconv.Itoa(pq.NumSubs())})
	return res, nil
}

// buildSpace runs the Preference Space module and laps it as the prefspace
// phase, hanging the build's estimator account under the lap's span.
func buildSpace(ctx context.Context, lp *obs.Laps, q *Query, u *Profile, est *estimate.Estimator, opt prefspace.Options) (*prefspace.Space, error) {
	sp, err := prefspace.BuildContext(ctx, q, u, est, opt)
	if err != nil {
		lp.Lap(obs.PhasePrefspace)
		return nil, err
	}
	if span := lp.Lap(obs.PhasePrefspace, obs.Attr{Key: "k", Value: strconv.Itoa(sp.K)}); span != nil {
		span.AddChild("estimate", sp.Estimate.Spent, obs.Attr{Key: "calls", Value: strconv.Itoa(sp.Estimate.Calls)})
	}
	return sp, nil
}

// recordSearchStats feeds one search's Stats into the registry under its
// algorithm's label — the live counterparts of the paper's Figures 12 and
// 13; PARETO frontier enumerations report through here too.
func recordSearchStats(reg *obs.Registry, st core.Stats) {
	if reg == nil {
		return
	}
	algo := st.Algorithm
	reg.Counter("search_solves_total", "algorithm", algo).Inc()
	reg.Counter("search_states_visited_total", "algorithm", algo).Add(int64(st.StatesVisited))
	reg.Counter("search_memo_hits_total", "algorithm", algo).Add(int64(st.MemoHits))
	reg.Gauge("search_queue_high_water", "algorithm", algo).SetMax(int64(st.QueueHighWater))
	reg.Gauge("search_peak_mem_bytes", "algorithm", algo).SetMax(st.PeakMemBytes)
	if st.Truncated {
		reg.Counter("search_truncated_total", "algorithm", algo).Inc()
	}
	reg.Histogram("search_ms", obs.DurationBucketsMS, "algorithm", algo).
		Observe(float64(st.Duration) / float64(time.Millisecond))
}

// FrontPoint is one non-dominated personalized query candidate: no other
// candidate has both higher interest and lower cost.
type FrontPoint struct {
	// Preferences lists the point's preferences in profile terms.
	Preferences []string
	Doi         float64
	CostMS      float64
	Size        float64
	// Knee marks the elbow of the frontier — the default pick when the
	// context provides no explicit bounds.
	Knee bool
}

// Front is a Pareto-frontier menu of personalized query candidates.
type Front struct {
	// Points holds the non-dominated candidates, cheapest first.
	Points []FrontPoint
	// Truncated reports that the frontier search hit its state budget: the
	// menu is best-found, not proven complete. Callers presenting the
	// frontier as exhaustive must check this.
	Truncated bool
	// Stats carries the frontier search's counters (states visited, peak
	// memory, duration), as recorded into the metrics registry.
	Stats SearchStats
}

// PersonalizeFront enumerates the doi/cost Pareto frontier of personalized
// queries — the paper's Section 8 future work ("more than one query
// parameter may be optimized simultaneously") — instead of committing to a
// single Table 1 problem. Optional constraints come from the problem-like
// bounds; maxPoints caps the menu (0 = all).
func (p *Personalizer) PersonalizeFront(q *Query, u *Profile, costMax, sizeMin, sizeMax float64, maxPoints int, opts ...Option) (*Front, error) {
	return p.PersonalizeFrontContext(context.Background(), q, u, costMax, sizeMin, sizeMax, maxPoints, opts...)
}

// PersonalizeFrontContext is PersonalizeFront under a context: a canceled
// or expired ctx aborts the enumeration at the same phase boundaries
// PersonalizeContext checks (before extraction, before the frontier search,
// before construction of the menu), and the three phases are lapped as
// PersonalizeContext laps them.
func (p *Personalizer) PersonalizeFrontContext(ctx context.Context, q *Query, u *Profile, costMax, sizeMin, sizeMax float64, maxPoints int, opts ...Option) (*Front, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if err := q.Validate(p.db.Schema()); err != nil {
		return nil, err
	}
	if err := u.Validate(p.db.Schema()); err != nil {
		return nil, err
	}
	est, metrics, _ := p.pipeline()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: front: %w", err)
	}
	lp := obs.StartLaps(ctx)
	sp, err := buildSpace(ctx, &lp, q, u, est, prefspace.Options{MaxK: o.maxK, CostMax: costMax})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: front: %w", err)
	}
	in := core.FromSpace(sp)
	in.StateBudget = o.budget
	front, stats := core.ParetoFront(in, core.ParetoOptions{
		CostMax: costMax, SizeMin: sizeMin, SizeMax: sizeMax, MaxPoints: maxPoints,
	})
	if stats.Fault != nil {
		// An injected fault aborted the search: an error, as Solve returns
		// it, so the daemon degrades around it and caches no partial front.
		lp.Lap(obs.PhaseSearch)
		return nil, stats.Fault
	}
	recordSearchStats(metrics, stats)
	lp.Lap(obs.PhaseSearch, obs.Attr{Key: "algorithm", Value: stats.Algorithm})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("cqp: front: %w", err)
	}
	kneeIdx, hasKnee := core.KneeIndex(front)
	out := &Front{Points: make([]FrontPoint, 0, len(front)), Truncated: stats.Truncated, Stats: stats}
	for fi, fp := range front {
		out.Points = append(out.Points, FrontPoint{
			Preferences: sp.Strings(fp.Set),
			Doi:         fp.Doi,
			CostMS:      fp.Cost,
			Size:        fp.Size,
			// Marked by frontier index: float equality against the knee's
			// parameters would miss it whenever two points tie.
			Knee: hasKnee && fi == kneeIdx,
		})
	}
	lp.Lap(obs.PhaseConstruct)
	return out, nil
}

// PersonalizeTopK returns the k highest-interest answers for the user: an
// any-match personalization whose results are ranked by the conjunction of
// the preferences each row satisfies, truncated to k rows. This is the
// top-k reading of personalization the paper contrasts CQP with (Section
// 2): a bound on how many answers come back rather than on the query's
// parameters.
func (p *Personalizer) PersonalizeTopK(q *Query, u *Profile, costMax float64, k int, opts ...Option) ([]RankedAnswer, error) {
	return p.PersonalizeTopKContext(context.Background(), q, u, costMax, k, opts...)
}

// PersonalizeTopKContext is PersonalizeTopK under a context: the
// personalization honors ctx at every Figure-2 phase boundary and the
// execution aborts when ctx dies before it starts.
func (p *Personalizer) PersonalizeTopKContext(ctx context.Context, q *Query, u *Profile, costMax float64, k int, opts ...Option) ([]RankedAnswer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cqp: top-k needs k > 0")
	}
	// Full-slice expression: appending into the caller's backing array
	// would leak WithAnyMatch into a slice the caller may reuse.
	opts = append(opts[:len(opts):len(opts)], WithAnyMatch())
	res, err := p.PersonalizeContext(ctx, q, u, Problem2(costMax), opts...)
	if err != nil {
		return nil, err
	}
	// The bounded-heap execution path: the executor keeps the k best rows
	// as groups stream by and never materializes the full ranked answer.
	rows, err := res.ExecuteTopKContext(ctx, k)
	if err != nil {
		return nil, err
	}
	out := make([]RankedAnswer, 0, k)
	for _, r := range rows.Rows {
		out = append(out, RankedAnswer{Row: r.Key, Doi: r.Doi, Matched: len(r.Matched)})
	}
	return out, nil
}

// RankedAnswer is one row of a top-k personalized answer.
type RankedAnswer struct {
	Row Row
	// Doi scores the row by the preferences it satisfies (Formula 10).
	Doi float64
	// Matched counts the satisfied preferences.
	Matched int
}

// EstimateQuery reports the estimator's (cost ms, size rows) for a plain
// conjunctive query — useful for choosing problem bounds.
func (p *Personalizer) EstimateQuery(q *Query) (costMS, size float64, err error) {
	if err := q.Validate(p.db.Schema()); err != nil {
		return 0, 0, err
	}
	est, _, _ := p.pipeline()
	return est.QueryCost(q), est.QuerySize(q), nil
}

// Evaluate executes a plain conjunctive query on the database.
func (p *Personalizer) Evaluate(q *Query) (*exec.Result, error) {
	return exec.Eval(p.db, q)
}
