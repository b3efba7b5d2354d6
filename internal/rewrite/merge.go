package rewrite

import (
	"fmt"

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
	if len(selected) == 0 {
		return Construct(q, nil, true)
	}
	p := &Personalized{Base: q, AllMatch: true}
	var order []string
	groups := make(map[string][]prefspace.Pref)
	for idx, pref := range selected {
		key, functional := pathKey(sch, pref.Imp)
		if !functional {
			// Isolate in its own sub-query.
			key = fmt.Sprintf("#%d", idx)
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], pref)
	}
	for _, key := range order {
		dois := make([]float64, 0, len(groups[key]))
		for _, pref := range groups[key] {
			dois = append(dois, pref.Doi)
		}
		p.integrated = append(p.integrated, groups[key]...)
		p.ends = append(p.ends, len(p.integrated))
		// The group's doi contribution is the conjunction of its members
		// (they are jointly satisfied or jointly absent after merging).
		p.Dois = append(p.Dois, prefs.Conjunction(dois...))
	}
	return p
}

// pathKey returns a canonical identity for a preference's join path and
// whether every step of it is functional (joins onto the right relation's
// key); a path that is not must not be merged.
func pathKey(sch *schema.Schema, imp prefs.Implicit) (key string, functional bool) {
	for _, j := range imp.Path {
		rel := sch.Relation(j.Right.Relation)
		if rel == nil || rel.Key == "" || rel.Key != j.Right.Attr {
			return "", false
		}
	}
	key, _ = imp.Split()
	return key, true
}
