package rewrite

import (
	"fmt"
	"strings"

	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/schema"
)

// This file implements the optimization the paper's footnote 1 leaves open:
// "there are various cases where multiple preferences can be effectively
// combined into one sub-query". Under the paper's cost model (Formula 6 sums
// per-sub-query costs) a combined sub-query is charged the shared relations
// once instead of once per preference, cutting cost without changing the
// answer — when it is safe. What merging saves is charged blocks
// (EXPERIMENTS.md, "merge"), no longer physical scans: the executor's union
// plan (internal/exec/union.go) reads what the sub-queries share once either
// way, and a merged sub-query reaches it as a multi-part one.
//
// Safety: a sub-query's conditions share one tuple binding per relation,
// while separate sub-queries bind existentially per preference. The two
// coincide exactly when the preference's join path is *functional*: every
// step joins onto the key of the right-hand relation, so each anchor tuple
// reaches at most one tuple there (e.g. MOVIE → DIRECTOR via the did key).
// Multi-valued paths (MOVIE → GENRE: a movie has many genre rows) must stay
// separate — "genre = comedy AND genre = drama" on one row is empty, while
// a movie may well satisfy both through different rows.
//
// Empty paths (selections on the query's own relations) merge under the
// same single-binding reading of the base query; when the projection does
// not functionally determine the anchor tuple (duplicate projected values
// from different tuples), merged and unmerged answers can differ on those
// duplicates. ConstructMerged is therefore an explicit opt-in.

// ConstructMerged integrates the selected preferences like Construct but
// combines preferences with identical functional join paths into shared
// sub-queries. Only the paper's all-match semantics is supported (merging
// under any-match would turn per-preference unions into conjunctions).
func ConstructMerged(q *query.Query, selected []prefspace.Pref, sch *schema.Schema) *Personalized {
	p := &Personalized{Base: q, AllMatch: true}
	if len(selected) == 0 {
		p.Subs = []*query.Query{q.Clone()}
		return p
	}
	type group struct {
		prefs []prefspace.Pref
	}
	var order []string
	groups := make(map[string]*group)
	for idx, pref := range selected {
		key := pathKey(sch, pref.Imp)
		if key == "" {
			// Non-functional path: isolate in its own sub-query.
			key = fmt.Sprintf("#%d", idx)
		}
		g, ok := groups[key]
		if !ok {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.prefs = append(g.prefs, pref)
	}
	for _, key := range order {
		g := groups[key]
		sq := q.Clone()
		dois := make([]float64, 0, len(g.prefs))
		for _, pref := range g.prefs {
			for _, j := range pref.Imp.Path {
				if !sq.HasJoin(j.AsJoin()) {
					sq.AddJoin(j.AsJoin())
				}
			}
			sq.AddSelection(pref.Imp.Sel.AsSelection())
			dois = append(dois, pref.Doi)
		}
		p.Subs = append(p.Subs, sq)
		// The group's doi contribution is the conjunction of its members
		// (they are jointly satisfied or jointly absent after merging).
		p.Dois = append(p.Dois, prefs.Conjunction(dois...))
	}
	return p
}

// pathKey returns a canonical identity for a preference's join path when
// every step is functional (joins onto the right relation's key), or ""
// when the path must not be merged.
func pathKey(sch *schema.Schema, imp prefs.Implicit) string {
	parts := make([]string, 0, len(imp.Path))
	for _, j := range imp.Path {
		rel := sch.Relation(j.Right.Relation)
		if rel == nil || rel.Key == "" || rel.Key != j.Right.Attr {
			return ""
		}
		parts = append(parts, j.String())
	}
	if len(parts) == 0 {
		return "<anchor>"
	}
	return strings.Join(parts, "&")
}

// MergedSavings reports how many sub-queries merging eliminates for a
// selection — a quick cost-delta proxy (each eliminated sub-query saves one
// scan of the base query's relations plus the shared path's).
func MergedSavings(q *query.Query, selected []prefspace.Pref, sch *schema.Schema) int {
	merged := ConstructMerged(q, selected, sch)
	return len(selected) - len(merged.Subs)
}
