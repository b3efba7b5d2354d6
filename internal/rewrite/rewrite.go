// Package rewrite implements the paper's Personalized Query Construction
// module (Section 4.2): after the CQP search has chosen the optimal subset
// of preferences PU, this module builds the actual personalized query —
// one sub-query per preference, each separately integrating that
// preference into Q, combined as
//
//	SELECT <proj> FROM (q1 UNION ALL q2 UNION ALL ...)
//	GROUP BY <proj> HAVING COUNT(*) = L
//
// Sub-query outputs are deduplicated on the projection so COUNT(*) counts
// sub-queries (preferences) rather than duplicate tuples; the paper's
// example ignores that distinction. An any-match variant (HAVING
// COUNT(*) >= 1) with r-based result ranking is also provided, matching the
// paper's remark that results "may be ranked based on their degree of
// interest".
//
// The union's text is written in one pass over Q's clauses rendered once
// (query.Clauses, the one clause layout a query's text has). No sub-query
// exists as a value: the first execution factors the union plan straight
// from Q and what each sub-query's preferences add to it (exec.UnionPlan).
package rewrite

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"cqp/internal/exec"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
)

// Personalized is a constructed personalized query Qx = Q ∧ Px. It records
// what each sub-query is — Q plus the preferences it integrates — and
// derives the SQL text and, on first execution, the union plan from that.
type Personalized struct {
	// Base is the original query Q.
	Base *query.Query
	// Dois holds each sub-query's doi, in sub-query order (nil when no
	// preferences were selected).
	Dois []float64
	// AllMatch selects the paper's HAVING COUNT(*) = L semantics; false
	// selects the any-match (>= 1) ranking variant.
	AllMatch bool

	// integrated lists the selected preferences in sub-query order: sub-query
	// i integrates integrated[ends[i-1]:ends[i]] (nothing, if none was selected).
	integrated []prefspace.Pref
	ends       []int

	build sync.Once
	plan  *exec.UnionPlan
}

// Construct integrates the selected preferences into Q, one sub-query per
// preference. It keeps selected; the caller must not modify it afterwards.
func Construct(q *query.Query, selected []prefspace.Pref, allMatch bool) *Personalized {
	p := &Personalized{Base: q, AllMatch: allMatch, integrated: selected, ends: []int{0}}
	if len(selected) > 0 {
		p.Dois, p.ends = make([]float64, len(selected)), make([]int, len(selected))
		for i := range selected {
			p.Dois[i], p.ends[i] = selected[i].Doi, i+1
		}
	}
	return p
}

// integrate returns add with what the preferences add to q appended: each
// one's join path and terminal selection, but no join q or add already
// states, and each relation they reach that neither names, once. add is
// taken and returned by value, so a caller's scratch arrays stay its own.
func integrate(q *query.Query, add query.Query, group []prefspace.Pref) query.Query {
	rel := func(r string) {
		if !q.HasRelation(r) && !add.HasRelation(r) {
			add.From = append(add.From, r)
		}
	}
	for i := range group {
		imp := &group[i].Imp
		for _, j := range imp.Path {
			if !q.HasJoin(j) && !add.HasJoin(j) {
				rel(j.Left.Relation)
				rel(j.Right.Relation)
				add.Joins = append(add.Joins, j)
			}
		}
		rel(imp.Sel.Attr.Relation)
		add.Selections = append(add.Selections, imp.Sel)
	}
	return add
}

// NumSubs is the number of sub-queries: one per integrated preference (or
// merged group), or just Q when no preferences were selected.
func (p *Personalized) NumSubs() int { return len(p.ends) }

// group returns the preferences sub-query i integrates.
func (p *Personalized) group(i int) []prefspace.Pref {
	start := 0
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.integrated[start:p.ends[i]]
}

// planFor returns the union plan every execution runs, built on first use
// from Q and what each sub-query adds to it (integrate) — no sub-query is —
// and validated against sch, the schema of the first execution's store.
// Safe for concurrent use.
func (p *Personalized) planFor(sch *schema.Schema) *exec.UnionPlan {
	p.build.Do(func() {
		// One array per clause backs every sub-query's additions: each is
		// integrated into the free tail of the one before.
		paths := 0
		for i := range p.integrated {
			paths += len(p.integrated[i].Imp.Path)
		}
		rels := make([]string, 0, 2*paths+len(p.integrated)) // a join names two relations
		joins := make([]query.Join, 0, paths)
		sels := make([]query.Selection, 0, len(p.integrated))
		adds := make([]query.Query, p.NumSubs())
		for i := range adds {
			a := integrate(p.Base, query.Query{From: rels[len(rels):], Joins: joins[len(joins):], Selections: sels[len(sels):]}, p.group(i))
			rels, joins, sels = rels[:len(rels)+len(a.From)], joins[:len(joins)+len(a.Joins)], sels[:len(sels)+len(a.Selections)]
			adds[i] = a
		}
		p.plan = exec.NewUnionPlan(sch, p.Base, adds)
	})
	return p.plan
}

// MinMatches returns the HAVING COUNT(*) threshold: L for all-match, 1 for
// any-match.
func (p *Personalized) MinMatches() int {
	if p.AllMatch {
		return p.NumSubs()
	}
	return 1
}

// SQL renders the personalized query in the paper's union form. With no
// integrated preferences it is simply the base query. Q's clauses are
// rendered once and each sub-query is written as those clauses plus what
// its preferences add — the text the sub-query itself (Q's clauses, each
// followed by what integrate adds) would give with DISTINCT set, without
// building it.
func (p *Personalized) SQL() string {
	if len(p.integrated) == 0 {
		return p.Base.SQL()
	}
	base := p.Base.Clauses()
	n := p.NumSubs()
	perSub := len("SELECT DISTINCT  FROM  WHERE  AND  UNION ALL ") +
		len(base.Project) + len(base.From) + len(base.Joins) + len(base.Selections) + len(base.Tail)
	size := 2*len(base.Project) + n*perSub + 64 // 64: the outer SELECT, GROUP BY and HAVING
	for i := range p.integrated {
		imp := &p.integrated[i].Imp
		size += len(" AND ") + len(imp.Condition())
		for j := range imp.Path {
			size += len(", ") + len(imp.Path[j].Right.Relation)
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString("SELECT ")
	b.WriteString(base.Project)
	b.WriteString(" FROM (")
	// One scratch query holds what each sub-query adds in turn, written
	// after Q's clauses — the selections as the text the preferences carry.
	var relBuf, selBuf [8]string
	var joinBuf [8]query.Join
	add, sels := query.Query{From: relBuf[:0], Joins: joinBuf[:0]}, selBuf[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		add.From, add.Joins, add.Selections, sels = add.From[:0], add.Joins[:0], add.Selections[:0], sels[:0]
		group := p.group(i)
		add = integrate(p.Base, add, group)
		for g := range group {
			_, sel := group[g].Imp.Split()
			sels = append(sels, sel)
		}
		base.WriteSQL(&b, true, add.From, add.Joins, sels)
	}
	b.WriteString(") GROUP BY ")
	b.WriteString(base.Project)
	if p.AllMatch {
		b.WriteString(" HAVING COUNT(*) = ")
	} else {
		b.WriteString(" HAVING COUNT(*) >= ")
	}
	b.WriteString(strconv.Itoa(p.MinMatches()))
	return b.String()
}

// Execute evaluates the personalized query on the store, returning ranked
// results and I/O accounting.
func (p *Personalized) Execute(db *storage.DB) (*exec.UnionResult, error) {
	return p.ExecuteContext(context.Background(), db)
}

// ExecuteContext is Execute honoring cancellation, which the executor
// polls inside every operator loop of the union plan.
func (p *Personalized) ExecuteContext(ctx context.Context, db *storage.DB) (*exec.UnionResult, error) {
	return p.planFor(db.Schema()).EvalContext(ctx, db, p.Dois, p.MinMatches())
}

// ExecuteTopKContext evaluates the personalized query keeping only the k
// best-ranked rows: the executor maintains a bounded heap while groups
// stream out of the union's group table, so the full ranked answer never
// materializes.
func (p *Personalized) ExecuteTopKContext(ctx context.Context, db *storage.DB, k int) (*exec.UnionResult, error) {
	return p.planFor(db.Schema()).EvalTopK(ctx, db, p.Dois, p.MinMatches(), k)
}
