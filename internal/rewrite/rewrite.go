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
// (query.Clauses, the one clause layout a query's text has); the sub-queries
// as values exist only once something executes them.
package rewrite

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"cqp/internal/exec"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/storage"
)

// Personalized is a constructed personalized query Qx = Q ∧ Px. It records
// what each sub-query is — Q plus the preferences it integrates — and
// derives the SQL text and, on first execution, the sub-queries from that.
type Personalized struct {
	// Base is the original query Q.
	Base *query.Query
	// Dois holds each sub-query's doi, aligned with Subs (nil when no
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
	subs  []*query.Query
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

// Integrate builds the sub-query Q ∧ p1 ∧ … for the preferences one
// sub-query integrates.
func Integrate(q *query.Query, group ...prefspace.Pref) *query.Query {
	sq := q.Clone()
	integrate(sq, group)
	return sq
}

// integrate adds each preference's join path and terminal selection to sq,
// but no join sq already states — Q's own, or an earlier preference's.
func integrate(sq *query.Query, group []prefspace.Pref) {
	for i := range group {
		imp := &group[i].Imp
		for _, j := range imp.Path {
			if !sq.HasJoin(j) {
				sq.AddJoin(j)
			}
		}
		sq.AddSelection(imp.Sel)
	}
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

// Subs returns the sub-queries, building them on first use; just [Q] when
// no preferences were selected. Safe for concurrent use.
func (p *Personalized) Subs() []*query.Query {
	p.build.Do(func() {
		p.subs = make([]*query.Query, p.NumSubs())
		for i := range p.subs {
			p.subs[i] = Integrate(p.Base, p.group(i)...)
		}
	})
	return p.subs
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
// its preferences add — the text Subs()[i].SQL() would give with DISTINCT
// set, without building Subs()[i].
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
	// One scratch query stands in for every sub-query in turn: Q's relations
	// and joins, then what integrate adds to them, which is what is written
	// after Q's clauses — the selections as the text the preferences carry.
	var relBuf, selBuf [8]string
	var joinBuf [8]query.Join
	sq := query.Query{From: append(relBuf[:0], p.Base.From...), Joins: append(joinBuf[:0], p.Base.Joins...)}
	nf, nj, sels := len(sq.From), len(sq.Joins), selBuf[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		sq.From, sq.Joins, sq.Selections, sels = sq.From[:nf], sq.Joins[:nj], sq.Selections[:0], sels[:0]
		group := p.group(i)
		integrate(&sq, group)
		for g := range group {
			_, sel := group[g].Imp.Split()
			sels = append(sels, sel)
		}
		base.WriteSQL(&b, true, sq.From[nf:], sq.Joins[nj:], sels)
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
	return exec.EvalUnionContext(ctx, db, p.Subs(), p.Dois, p.MinMatches())
}

// ExecuteTopKContext evaluates the personalized query keeping only the k
// best-ranked rows: the executor maintains a bounded heap while groups
// stream out of the union's group table, so the full ranked answer never
// materializes.
func (p *Personalized) ExecuteTopKContext(ctx context.Context, db *storage.DB, k int) (*exec.UnionResult, error) {
	return exec.EvalUnionTopK(ctx, db, p.Subs(), p.Dois, p.MinMatches(), k)
}
