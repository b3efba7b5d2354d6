// Package exec evaluates conjunctive queries and personalized union queries
// against a storage backend, and charges each the paper's block cost.
//
// The charge is the paper's cost model (Section 7.1), computed from the FROM
// lists (charge): every relation in a (sub-)query costs its full block
// count, as one full scan with no indexes, and a personalized query's
// sub-queries are charged independently, so a relation shared by two
// sub-queries is charged twice — exactly as Formula 6 sums per-sub-query
// costs. The charge is arithmetic, not a meter: the union plan (union.go)
// reads what the sub-queries share once, an equality selection on an
// in-memory table reads only its literal's rows, and a join builds from an
// in-memory table's index without scanning it (storage.Table.Index); a
// reducer walks a preference path from such an equality through such joins.
// What the plan physically read is in the storage_*_total metrics. A union
// answers from the store's base cache when it can (basecache.go), and runs
// the one-pass plan (union.go) otherwise.
//
// Evaluation is a thin driver over an internal/iter operator tree: scans
// stream rows from backend cursors through filters, hash joins, projection
// and dedup, polling the context inside every loop. The stateful operators
// (join builds, DISTINCT sets, the union's tag relations and group table)
// spill to temp-file partitions when a per-query budget (iter.WithBudget)
// says so.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"cqp/internal/fault"
	"cqp/internal/iter"
	"cqp/internal/obs"
	"cqp/internal/prefs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
)

// Result is the outcome of evaluating one conjunctive query.
type Result struct {
	// Columns names the projected attributes.
	Columns []schema.AttrRef
	// Rows holds the projected tuples (with duplicates unless the query is
	// DISTINCT).
	Rows []storage.Row
	// BlockReads is the block charge of the query (charge).
	BlockReads int64
	// Elapsed is the wall-clock time of the in-memory evaluation.
	Elapsed time.Duration
}

// Eval evaluates a conjunctive SPJ query. It validates the query first.
func Eval(db *storage.DB, q *query.Query) (*Result, error) {
	return EvalContext(context.Background(), db, q)
}

// EvalContext is Eval honoring cancellation: the context is polled before
// the evaluation starts and inside every operator loop of the iterator
// tree, so an expired deadline stops a scan or a join build mid-stream.
func EvalContext(ctx context.Context, db *storage.DB, q *query.Query) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := q.Validate(db.Schema()); err != nil {
		return nil, err
	}
	start := time.Now()
	tree, err := buildJoinTree(ctx, db, q, q.From[0])
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		tree = op(iter.Distinct(ctx, tree))
	}
	if q.Limit > 0 && len(q.OrderBy) == 0 {
		// Without ORDER BY the limit pushes into the tree: operators below
		// never produce rows the consumer won't take.
		tree = op(iter.Limit(tree, q.Limit))
	}
	out, err := iter.Collect(tree)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 {
		orderRows(out, q)
		if q.Limit > 0 && len(out) > q.Limit {
			out = out[:q.Limit]
		}
	}
	return &Result{
		Columns:    q.Project,
		Rows:       out,
		BlockReads: charge(db, q),
		Elapsed:    time.Since(start),
	}, nil
}

// charge is the paper's block charge for q (Formula 6's summand): the full
// block count of every heap file q names, as if each were scanned whole,
// however the plan reads them. Validate rejects a relation named twice.
func charge(db *storage.DB, q *query.Query) int64 {
	var n int64
	for _, r := range q.From {
		n += db.MustTable(r).Blocks()
	}
	return n
}

// orderRows sorts projected rows by the query's ORDER BY keys (already
// validated to be projected attributes).
func orderRows(rows []storage.Row, q *query.Query) {
	idx := make([]int, len(q.OrderBy))
	for i, o := range q.OrderBy {
		for j, p := range q.Project {
			if p == o.Attr {
				idx[i] = j
				break
			}
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, o := range q.OrderBy {
			c := rows[a][idx[i]].Compare(rows[b][idx[i]])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// op is applied to the output of every operator the executor builds. It is
// the identity; the row-ownership test swaps in a wrapper that poisons rows.
var op = func(it iter.Iterator) iter.Iterator { return it }

// relAttrs lists a relation's attributes in column order — the layout of a
// tuple scanned from it.
func relAttrs(rel *schema.Relation) []schema.AttrRef {
	out := make([]schema.AttrRef, len(rel.Columns))
	for i, c := range rel.Columns {
		out[i] = schema.AttrRef{Relation: rel.Name, Attr: c.Name}
	}
	return out
}

// position returns where a sits in a tuple laid out as layout. The
// validated query only asks for attributes the layout carries.
func position(layout []schema.AttrRef, a schema.AttrRef) int {
	for i, l := range layout {
		if l == a {
			return i
		}
	}
	panic(fmt.Sprintf("exec: %s not carried by the join tree", a))
}

// buildJoinTree assembles the iterator tree that scans, filters, joins and
// projects the relations of the query, returning a stream of q.Project
// tuples, starting at relation seed (reducerSeed). Every relation's scan is
// opened here, up front.
//
// A join emits only the columns something above it still reads: the
// projection and the keys of joins not yet applied (later joins, and the
// residual joins of a cyclic query). The last join of an acyclic query
// therefore emits the projection itself, in order.
func buildJoinTree(ctx context.Context, db *storage.DB, q *query.Query, seed string) (iter.Iterator, error) {
	// Per-relation pushed-down selections.
	selsFor := make(map[string][]query.Selection)
	for _, s := range q.Selections {
		selsFor[s.Attr.Relation] = append(selsFor[s.Attr.Relation], s)
	}
	var opened []iter.Iterator
	fail := func(err error) (iter.Iterator, error) {
		for _, it := range opened {
			it.Close()
		}
		return nil, err
	}
	// openRel opens a filtered scan of one relation — through the batch's
	// scan share when the context carries one (one physical pass feeds
	// every consumer), privately (openPrivate) otherwise. Either way the
	// rows are the table's own, which a join build holds by reference.
	openRel := func(t storage.Backend) (iter.Iterator, error) {
		sels := selsFor[t.Relation().Name]
		var src iter.Iterator
		if sh := ScanShareFromContext(ctx); sh != nil {
			shared, used, err := sh.open(ctx, t)
			if err != nil {
				return nil, err
			}
			if used {
				src = shared
			}
		}
		if src == nil {
			cur, err := openPrivate(t, sels)
			if err != nil {
				return nil, err
			}
			src = iter.FromCursor(ctx, cur)
		}
		opened = append(opened, src)
		if len(sels) == 0 {
			return op(src), nil
		}
		idx := make([]int, len(sels))
		for i, s := range sels {
			idx[i] = t.Relation().ColumnIndex(s.Attr.Attr)
		}
		return op(iter.Filter(src, func(r storage.Row) bool {
			for i := range sels {
				if !sels[i].Op.Test(&r[idx[i]], &sels[i].Value) {
					return false
				}
			}
			return true
		})), nil
	}

	t0, err := db.Table(seed)
	if err != nil {
		return fail(err)
	}
	current, err := openRel(t0)
	if err != nil {
		return fail(err)
	}
	joined := map[string]bool{seed: true}
	// layout names the attribute at each position of current's tuples.
	layout := relAttrs(t0.Relation())
	usedJoin := make([]bool, len(q.Joins))
	// needed reports whether anything above the join being built reads a.
	needed := func(a schema.AttrRef) bool {
		for ji, j := range q.Joins {
			if !usedJoin[ji] && (j.Left == a || j.Right == a) {
				return true
			}
		}
		return slices.Contains(q.Project, a)
	}
	for remaining := len(q.From) - 1; remaining > 0; remaining-- {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}
		// Find a relation connected to the joined set.
		next, conds := pickNext(q, joined, usedJoin, nil)
		if next == "" {
			// Disconnected query: cartesian-product the next unjoined relation.
			for _, r := range q.From {
				if !joined[r] {
					next = r
					break
				}
			}
		}
		t, err := db.Table(next)
		if err != nil {
			return fail(err)
		}
		build, err := openRel(t)
		if err != nil {
			return fail(err)
		}
		width := len(layout)
		wide := append(layout[:width:width], relAttrs(t.Relation())...)
		// Output columns, as positions in probe ++ build.
		var out []int
		if remaining == 1 && !slices.Contains(usedJoin, false) {
			for _, p := range q.Project {
				out = append(out, position(wide, p))
			}
		} else {
			for i, a := range wide {
				if needed(a) {
					out = append(out, i)
				}
			}
		}
		// With no conds the join is keyless: every build row matches.
		probeIdx := make([]int, len(conds))
		buildIdx := make([]int, len(conds))
		for i, c := range conds {
			probeIdx[i] = position(layout, c.Left)
			buildIdx[i] = t.Relation().ColumnIndex(c.Right.Attr)
		}
		var pre *storage.Index
		if mt := indexedBuild(ctx, t, conds, len(selsFor[next]) > 0); mt != nil {
			pre = mt.Index(buildIdx[0])
		}
		current = op(iter.HashJoin(ctx, current, build, probeIdx, buildIdx, width, out, pre))
		layout = make([]schema.AttrRef, len(out))
		for i, c := range out {
			layout[i] = wide[c]
		}
		joined[next] = true
	}
	// Residual joins (both sides already joined — cycles) act as filters.
	var residual [][2]int
	for ji, j := range q.Joins {
		if !usedJoin[ji] {
			residual = append(residual, [2]int{position(layout, j.Left), position(layout, j.Right)})
		}
	}
	if len(residual) > 0 {
		current = op(iter.Filter(current, func(r storage.Row) bool {
			for _, lr := range residual {
				if r[lr[0]].Compare(r[lr[1]]) != 0 {
					return false
				}
			}
			return true
		}))
	}
	if !slices.Equal(layout, q.Project) {
		idx := make([]int, len(q.Project))
		for i, p := range q.Project {
			idx[i] = position(layout, p)
		}
		current = op(iter.Project(current, idx))
	}
	return current, nil
}

// openPrivate opens a private scan of t: for an in-memory table with an
// equality selection, only the rows of the first such literal's index chain —
// a superset of the rows the selections keep, in table order, which the
// caller's filter narrows to exactly those — and a full scan otherwise. Both
// pass Open's fault point and scan metrics.
func openPrivate(t storage.Backend, sels []query.Selection) (storage.Cursor, error) {
	if mt, ok := t.(*storage.Table); ok {
		for _, s := range sels {
			if s.Op == query.OpEq {
				return mt.OpenEq(t.Relation().ColumnIndex(s.Attr.Attr), s.Value)
			}
		}
	}
	return t.Open()
}

// indexedBuild returns t if a join of it on conds builds from its column
// index, with nothing to drain or hash: a private, unfiltered build on one
// column of an in-memory table. Otherwise nil.
func indexedBuild(ctx context.Context, t storage.Backend, conds []query.Join, filtered bool) *storage.Table {
	mt, ok := t.(*storage.Table)
	if !ok || len(conds) != 1 || filtered || ScanShareFromContext(ctx) != nil {
		return nil
	}
	return mt
}

// pickNext selects an unjoined relation connected to the joined set by at
// least one join, marking every join between the set and that relation used
// and returning those joins oriented (left = already-joined side), appended
// to conds.
func pickNext(q *query.Query, joined map[string]bool, usedJoin []bool, conds []query.Join) (string, []query.Join) {
	var next string
	for _, j := range q.Joins {
		lj, rj := joined[j.Left.Relation], joined[j.Right.Relation]
		switch {
		case lj && !rj:
			next = j.Right.Relation
		case rj && !lj:
			next = j.Left.Relation
		default:
			continue
		}
		break
	}
	if next == "" {
		return "", conds
	}
	for ji, j := range q.Joins {
		if usedJoin[ji] {
			continue
		}
		switch {
		case joined[j.Left.Relation] && j.Right.Relation == next:
			conds = append(conds, j)
			usedJoin[ji] = true
		case joined[j.Right.Relation] && j.Left.Relation == next:
			conds = append(conds, query.Join{Left: j.Right, Right: j.Left})
			usedJoin[ji] = true
		}
	}
	return next, conds
}

// RankedRow is one tuple of a personalized query's answer together with the
// sub-queries (preferences) it satisfies and its degree of interest under
// the conjunction function r (Formula 10).
type RankedRow struct {
	Key storage.Row
	// Matched lists indices of the satisfied sub-queries.
	Matched []int
	// Doi is 1 − Π(1 − doi_i) over the matched sub-queries.
	Doi float64
}

// SubQueryStat instruments one sub-query of a personalized union: the
// paper's Formula 6 charges the union as the sum over sub-queries, and
// this is where each summand becomes visible.
type SubQueryStat struct {
	// Rows is the sub-query's (deduplicated) result cardinality.
	Rows int
	// BlockReads is the sub-query's block charge, as if it ran alone (charge).
	BlockReads int64
	// Elapsed is the time this evaluation spent on the sub-query alone: the
	// build of its group bitmap, zero when the base cache had it; on the
	// one-pass plan, the time of the reducers it fed, zero if it only adds
	// conditions over the shared relations. The values are not additive:
	// what the sub-queries share runs once (UnionResult.Base).
	Elapsed time.Duration
}

// UnionResult is the outcome of a personalized (union) query evaluation.
type UnionResult struct {
	Columns []schema.AttrRef
	// Rows are ranked by decreasing doi, ties broken by key for determinism.
	Rows []RankedRow
	// Total counts the rows of the whole answer, the groups that pass
	// minMatches: len(Rows) unless a top-k evaluation kept fewer.
	Total int
	// BlockReads is Formula 6's charge: the sum of the sub-queries' charges.
	BlockReads int64
	Elapsed    time.Duration
	// Base is the time spent on what the sub-queries share — finding or
	// materializing B in the base cache, or the one pass over it — and Rank
	// that of ranking its groups; with Subs' times they make up Elapsed.
	Base, Rank time.Duration
	// Subs holds per-sub-query figures aligned with the union's sub-queries,
	// for tracing and metrics.
	Subs []SubQueryStat
}

// EvalContext evaluates the personalized query "UNION ALL of sub-queries,
// GROUP BY projection HAVING COUNT(*) >= minMatches" the plan was built from
// (Section 4.2 of the paper; the paper's construction uses == L, which
// callers get with minMatches == L since each sub-query's output is
// deduplicated on the projection), or answers the plan's refusal. dois
// provides each sub-query's preference doi for ranking; it may be nil, in
// which case all results rank equally at 0 and only membership counts.
func (p *UnionPlan) EvalContext(ctx context.Context, db *storage.DB, dois []float64, minMatches int) (*UnionResult, error) {
	return p.eval(ctx, db, dois, minMatches, 0)
}

// EvalTopK is EvalContext keeping only the k best-ranked rows, maintained in
// a bounded heap while groups stream out of the group table: the full ranked
// result never materializes, so a top-k request over a huge union costs
// O(groups·log k) time and O(k) result memory.
func (p *UnionPlan) EvalTopK(ctx context.Context, db *storage.DB, dois []float64, minMatches, k int) (*UnionResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("exec: top-k needs k > 0")
	}
	return p.eval(ctx, db, dois, minMatches, k)
}

// eval evaluates the union unless what it checks first, or the plan's
// refusal, stops it: from the store's base cache (fromCache) when it can, by
// the one-pass plan otherwise. It hosts the fault harness's exec.union
// injection point, standing in for executor failures of a real engine.
func (p *UnionPlan) eval(ctx context.Context, db *storage.DB, dois []float64, minMatches, k int) (*UnionResult, error) {
	if n := len(p.adds); dois != nil && len(dois) != n {
		return nil, fmt.Errorf("exec: %d dois for %d sub-queries", len(dois), n)
	}
	if err := fault.Inject(fault.ExecUnion); err != nil {
		return nil, fmt.Errorf("exec: union: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("exec: union: %w", err)
	}
	if p.err != nil {
		return nil, p.err
	}
	minMatches = max(minMatches, 1)
	stats := make([]SubQueryStat, len(p.adds))
	// Formula 6: a sub-query is charged every heap file it names — B's and
	// those it adds — as if it ran alone, however few passes the plan makes.
	shared := charge(db, p.base)
	var blocks int64
	for i := range stats {
		stats[i].BlockReads = shared + charge(db, &p.adds[i])
		blocks += stats[i].BlockReads
	}
	start := time.Now()
	n := len(p.base.Project)
	out := &UnionResult{Columns: p.base.Project[:n:n], BlockReads: blocks, Subs: stats}
	var bmsBuf [32]groupSet
	bms := append(bmsBuf[:0], make([]groupSet, len(stats))...)
	var how Report
	b, err := p.fromCache(ctx, db, stats, bms, &how)
	switch {
	case err == nil:
		out.Base = time.Since(start)
		for _, s := range stats {
			out.Base -= s.Elapsed
		}
		out.Rows, out.Total = b.answer(bms, dois, minMatches, k, stats)
		report(ctx, how)
	case errors.Is(err, errOnePass):
		for i := range stats {
			stats[i].Elapsed = 0 // a bitmap built before the fallback answers nothing
		}
		tried := time.Since(start) // a fill that gave up is time spent on B
		if err := p.onePass().answer(ctx, db, out, dois, minMatches, k); err != nil {
			return nil, err
		}
		out.Base += tried
		report(ctx, Report{Base: "onepass"})
	default:
		// %w: the cause's class (injected fault, context death) must survive
		// for retry and degradation policies to read.
		return nil, fmt.Errorf("exec: union: %w", err)
	}
	out.Elapsed = time.Since(start)
	out.Rank = out.Elapsed - out.Base
	for _, s := range stats {
		out.Rank -= s.Elapsed
	}
	if reg := db.Metrics(); reg != nil {
		reg.Counter("exec_unions_total").Inc()
		reg.Counter("exec_subqueries_total").Add(int64(len(stats)))
		reg.Counter("exec_block_reads_total").Add(out.BlockReads)
		reg.Counter("exec_rows_returned_total").Add(int64(len(out.Rows)))
		reg.Histogram("exec_union_ms", obs.DurationBucketsMS).
			Observe(float64(out.Elapsed) / float64(time.Millisecond))
		hsub := reg.Histogram("exec_subquery_ms", obs.DurationBucketsMS)
		for _, s := range stats {
			hsub.Observe(float64(s.Elapsed) / float64(time.Millisecond))
		}
	}
	return out, nil
}

// answer evaluates the union in one pass into out: its rows, Total, the
// sub-queries' rows and reducer times, and Base, the time of the pass
// without them.
func (p *onePass) answer(ctx context.Context, db *storage.DB, out *UnionResult, dois []float64, minMatches, k int) error {
	start := time.Now()
	stats := out.Subs
	grouper := iter.NewGrouper(ctx, len(stats))
	defer grouper.Close()
	if err := p.run(ctx, db, grouper, stats); err != nil {
		return fmt.Errorf("exec: union: %w", err)
	}
	out.Base = time.Since(start)
	for _, s := range stats {
		out.Base -= s.Elapsed
	}
	rank := ranking{k: k}
	err := grouper.Each(func(row storage.Row, tags []uint64) error {
		// Fold the dois over the matched sub-queries in ascending order —
		// the order Matched lists them in, so the product's floating-point
		// result does not depend on how the groups were built.
		matches := 0
		var doi prefs.ConjAccum
		doi.Reset()
		for w, word := range tags {
			matches += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				stats[i].Rows++
				if dois != nil {
					doi.Add(dois[i])
				}
			}
		}
		if matches >= minMatches {
			out.Total++
			rank.offer(row, doi.Doi(), tags, matches)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("exec: union group: %w", err)
	}
	sort.Sort(&rank)
	out.Rows = rank.rows
	return nil
}

// ranking collects ranked rows and orders them best first: higher doi,
// then the key's SQL rendering position by position (the deterministic
// tie-break; numbers order as text), compared without rendering it
// (value.CompareSQL).
//
// With k > 0 it keeps only the k best rows, as a heap whose root is the
// worst kept row, and a row's Matched slice is built only if it is kept.
//
// It is a keeper (DESIGN §12): a key it is offered is the group table's, and
// it copies the key of a row it keeps, so the result outlives the table.
type ranking struct {
	rows []RankedRow
	k    int
	keys iter.Slab[value.Value] // backs the Keys
	ints iter.Slab[int]         // backs the Matched slices
}

func (r *ranking) Len() int { return len(r.rows) }

func (r *ranking) Swap(i, j int) { r.rows[i], r.rows[j] = r.rows[j], r.rows[i] }

// Less reports whether row i ranks before row j.
func (r *ranking) Less(i, j int) bool {
	a, b := &r.rows[i], &r.rows[j]
	if a.Doi != b.Doi {
		return a.Doi > b.Doi
	}
	for c := range a.Key {
		if d := value.CompareSQL(a.Key[c], b.Key[c]); d != 0 {
			return d < 0
		}
	}
	return false
}

// offer adds a row matched by the matches sub-queries in the tags bitset,
// or, at capacity, lets it replace the worst kept row if it ranks before it.
func (r *ranking) offer(key storage.Row, doi float64, tags []uint64, matches int) {
	at := len(r.rows)
	r.rows = append(r.rows, RankedRow{Key: key, Doi: doi})
	if r.k > 0 && at == r.k {
		// The candidate sits one past the heap; compare, then drop the slot.
		better := r.Less(at, 0)
		if better {
			r.Swap(at, 0)
		}
		r.rows = r.rows[:at]
		if !better {
			return
		}
		at = 0
	}
	matched := r.ints.Take(matches)[:0]
	for w, word := range tags {
		for ; word != 0; word &= word - 1 {
			matched = append(matched, w*64+bits.TrailingZeros64(word))
		}
	}
	r.rows[at].Matched = matched
	r.rows[at].Key = r.keys.Take(len(key))
	copy(r.rows[at].Key, key)
	if r.k > 0 {
		r.fix(at)
	}
}

// fix restores the heap (every row ranks before its parent) around slot i.
func (r *ranking) fix(i int) {
	for p := (i - 1) / 2; i > 0 && r.Less(p, i); i, p = p, (p-1)/2 {
		r.Swap(p, i)
	}
	for {
		c := 2*i + 1
		if c >= len(r.rows) {
			return
		}
		if c+1 < len(r.rows) && r.Less(c, c+1) {
			c++ // the worse child
		}
		if !r.Less(i, c) {
			return
		}
		r.Swap(i, c)
		i = c
	}
}

// RealCost converts an evaluation into the paper's "Real Query Exec. Time"
// (Figure 15): the block charge at b per block plus the measured in-memory
// compute time (the part the estimator deliberately ignores).
func RealCost(blockReads int64, elapsed time.Duration, b time.Duration) time.Duration {
	return time.Duration(blockReads)*b + elapsed
}
