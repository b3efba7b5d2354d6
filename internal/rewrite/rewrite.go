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
// derives the two things a caller can ask for from that: the SQL text,
// written in one pass, and the sub-queries as *query.Query values, built the
// first time an execution needs them. A personalization that is only shown
// (or cached and never executed) builds none.
type Personalized struct {
	// Base is the original query Q.
	Base *query.Query
	// Dois holds each sub-query's doi, aligned with Subs (empty when no
	// preferences were selected).
	Dois []float64
	// AllMatch selects the paper's HAVING COUNT(*) = L semantics; false
	// selects the any-match (>= 1) ranking variant.
	AllMatch bool

	// integrated lists the selected preferences in sub-query order. Sub-query
	// i integrates integrated[ends[i-1]:ends[i]]; a nil ends means one
	// preference each.
	integrated []prefspace.Pref
	ends       []int

	build sync.Once
	subs  []*query.Query
}

// Construct integrates the selected preferences into Q, one sub-query per
// preference. It keeps selected; the caller must not modify it afterwards.
func Construct(q *query.Query, selected []prefspace.Pref, allMatch bool) *Personalized {
	p := &Personalized{Base: q, AllMatch: allMatch, integrated: selected}
	if len(selected) > 0 {
		p.Dois = make([]float64, len(selected))
		for i, pref := range selected {
			p.Dois[i] = pref.Doi
		}
	}
	return p
}

// Integrate builds the sub-query Q ∧ p1 ∧ … for the preferences one
// sub-query integrates: Q plus each preference's join path and terminal
// selection. A join Q or an earlier preference already states is not
// repeated.
func Integrate(q *query.Query, group ...prefspace.Pref) *query.Query {
	sq := q.Clone()
	for _, pref := range group {
		for _, j := range pref.Imp.Path {
			if !sq.HasJoin(j.AsJoin()) {
				sq.AddJoin(j.AsJoin())
			}
		}
		sq.AddSelection(pref.Imp.Sel.AsSelection())
	}
	return sq
}

// NumSubs is the number of sub-queries: one per integrated preference (or
// merged group), or just Q when no preferences were selected.
func (p *Personalized) NumSubs() int {
	switch {
	case p.ends != nil:
		return len(p.ends)
	case len(p.integrated) > 0:
		return len(p.integrated)
	}
	return 1
}

// group returns the preferences sub-query i integrates.
func (p *Personalized) group(i int) []prefspace.Pref {
	switch {
	case p.ends == nil:
		return p.integrated[i : i+1]
	case i == 0:
		return p.integrated[:p.ends[0]]
	}
	return p.integrated[p.ends[i-1]:p.ends[i]]
}

// Subs returns the sub-queries, building them on first use; just [Q] when
// no preferences were selected. Safe for concurrent use.
func (p *Personalized) Subs() []*query.Query {
	p.build.Do(func() {
		if len(p.integrated) == 0 {
			p.subs = []*query.Query{Integrate(p.Base)}
			return
		}
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
	size := 2*len(base.Project()) + n*(base.Len()+len(" UNION ALL ")) + 64
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
	b.WriteString(base.Project())
	b.WriteString(" FROM (")
	// What one sub-query adds to Q, as Integrate would: relations and joins
	// collected in a scratch query so its Has* tests apply, selections as
	// the text the preferences already carry.
	var relBuf, selBuf [4]string
	var joinBuf [4]query.Join
	add := query.Query{From: relBuf[:0], Joins: joinBuf[:0]}
	sels := selBuf[:0]
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" UNION ALL ")
		}
		add.From, add.Joins, sels = add.From[:0], add.Joins[:0], sels[:0]
		group := p.group(i)
		for g := range group {
			imp := &group[g].Imp
			for _, jc := range imp.Path {
				j := jc.AsJoin()
				if p.Base.HasJoin(j) || add.HasJoin(j) {
					continue
				}
				p.addRelation(&add, j.Left.Relation)
				p.addRelation(&add, j.Right.Relation)
				add.Joins = append(add.Joins, j)
			}
			p.addRelation(&add, imp.Sel.Attr.Relation)
			sels = append(sels, imp.SelectionText())
		}
		base.WriteSQL(&b, true, add.From, add.Joins, sels)
	}
	b.WriteString(") GROUP BY ")
	b.WriteString(base.Project())
	if p.AllMatch {
		b.WriteString(" HAVING COUNT(*) = ")
	} else {
		b.WriteString(" HAVING COUNT(*) >= ")
	}
	b.WriteString(strconv.Itoa(p.MinMatches()))
	return b.String()
}

// addRelation notes a relation a sub-query's FROM needs beyond Q's.
func (p *Personalized) addRelation(add *query.Query, name string) {
	if !p.Base.HasRelation(name) {
		add.AddRelation(name)
	}
}

// Execute evaluates the personalized query on the store, returning ranked
// results and I/O accounting.
func (p *Personalized) Execute(db *storage.DB) (*exec.UnionResult, error) {
	return p.ExecuteContext(context.Background(), db)
}

// ExecuteContext is Execute honoring cancellation, which the executor
// polls inside every operator loop of the union plan.
func (p *Personalized) ExecuteContext(ctx context.Context, db *storage.DB) (*exec.UnionResult, error) {
	dois := p.Dois
	if len(dois) == 0 {
		dois = nil
	}
	return exec.EvalUnionContext(ctx, db, p.Subs(), dois, p.MinMatches())
}

// ExecuteTopKContext evaluates the personalized query keeping only the k
// best-ranked rows: the executor maintains a bounded heap while groups
// stream out of the union's group table, so the full ranked answer never
// materializes.
func (p *Personalized) ExecuteTopKContext(ctx context.Context, db *storage.DB, k int) (*exec.UnionResult, error) {
	dois := p.Dois
	if len(dois) == 0 {
		dois = nil
	}
	return exec.EvalUnionTopK(ctx, db, p.Subs(), dois, p.MinMatches(), k)
}
