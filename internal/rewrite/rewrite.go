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
	"fmt"
	"strings"

	"cqp/internal/exec"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/storage"
)

// Personalized is a constructed personalized query Qx = Q ∧ Px.
type Personalized struct {
	// Base is the original query Q.
	Base *query.Query
	// Subs holds one sub-query per integrated preference; just [Q] when no
	// preferences were selected.
	Subs []*query.Query
	// Dois holds each integrated preference's doi, aligned with Subs
	// (empty when no preferences were selected).
	Dois []float64
	// AllMatch selects the paper's HAVING COUNT(*) = L semantics; false
	// selects the any-match (>= 1) ranking variant.
	AllMatch bool
}

// Construct integrates the selected preferences into Q.
func Construct(q *query.Query, selected []prefspace.Pref, allMatch bool) *Personalized {
	p := &Personalized{Base: q, AllMatch: allMatch}
	if len(selected) == 0 {
		p.Subs = []*query.Query{q.Clone()}
		return p
	}
	for _, pref := range selected {
		p.Subs = append(p.Subs, Integrate(q, pref))
		p.Dois = append(p.Dois, pref.Doi)
	}
	return p
}

// Integrate builds the sub-query Q ∧ p for one preference: Q plus the
// preference's join path and terminal selection.
func Integrate(q *query.Query, pref prefspace.Pref) *query.Query {
	sq := q.Clone()
	for _, j := range pref.Imp.Path {
		if !sq.HasJoin(j.AsJoin()) {
			sq.AddJoin(j.AsJoin())
		}
	}
	sq.AddSelection(pref.Imp.Sel.AsSelection())
	return sq
}

// MinMatches returns the HAVING COUNT(*) threshold: L for all-match, 1 for
// any-match.
func (p *Personalized) MinMatches() int {
	if p.AllMatch {
		return len(p.Subs)
	}
	return 1
}

// SQL renders the personalized query in the paper's union form. With no
// integrated preferences it is simply the base query.
func (p *Personalized) SQL() string {
	if len(p.Dois) == 0 {
		return p.Base.SQL()
	}
	proj := make([]string, len(p.Base.Project))
	for i, a := range p.Base.Project {
		proj[i] = a.String()
	}
	projList := strings.Join(proj, ", ")
	subs := make([]string, len(p.Subs))
	for i, s := range p.Subs {
		d := s.Clone()
		d.Distinct = true
		subs[i] = d.SQL()
	}
	cmp := ">="
	n := 1
	if p.AllMatch {
		cmp = "="
		n = len(p.Subs)
	}
	return fmt.Sprintf("SELECT %s FROM (%s) GROUP BY %s HAVING COUNT(*) %s %d",
		projList, strings.Join(subs, " UNION ALL "), projList, cmp, n)
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
	return exec.EvalUnionContext(ctx, db, p.Subs, dois, p.MinMatches())
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
	return exec.EvalUnionTopK(ctx, db, p.Subs, dois, p.MinMatches(), k)
}
