package exec

import (
	"context"
	"fmt"
	"slices"

	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
)

// UnionPlan is a personalized union: B, what every sub-query states, and
// what each sub-query adds to it (DESIGN §12). A sub-query is deduplicated on
// a projection that only B's relations supply, so it is a semi-join: the
// groups of B's tuples that all its additions accept. An execution answers
// from the store's base cache (basecache.go), or else runs the sub-queries
// as the union's SQL states them, one at a time (subqueries). Nothing in it
// changes once built, so one plan may run any number of times, concurrently.
type UnionPlan struct {
	// base is B: q's relations, joins and selections and whatever every
	// sub-query adds alike, in adds[0]'s order, projecting the union's
	// projection, with its DISTINCT and ORDER BY as stated.
	base *query.Query
	// adds[i] is what sub-query i states beyond B: only From, Joins and
	// Selections are set, each nil when empty.
	adds []query.Query
	// err refuses the union as stated (NewUnionPlan), nil if it is valid.
	err error
}

// NewUnionPlan plans the union whose sub-query i is q's clauses with the
// relations, joins and selections of adds[i] appended (only those are read;
// there is at least one). Each sub-query is validated as stated, without
// being built (ValidateWith), and a LIMIT is refused: the first refusal is
// what the plan answers. The plan depends only on the sub-queries, not on
// how they are split between q and adds, and reads q's and adds' slices
// without writing them; it may keep the latter.
func NewUnionPlan(sch *schema.Schema, q *query.Query, adds []query.Query) *UnionPlan {
	p := hoist(q, adds)
	for i := range adds {
		if err := q.ValidateWith(sch, &adds[i]); err != nil {
			p.err = fmt.Errorf("exec: sub-query %d: %w", i, err)
			break
		}
		if q.Limit > 0 {
			// The plan runs the sub-queries as one: a LIMIT, which would cut one
			// of them short alone, has no meaning.
			p.err = fmt.Errorf("exec: sub-query %d: a union's sub-queries share one projection and carry no LIMIT", i)
			break
		}
	}
	return p
}

// Whole states sub-queries, each given whole, as NewUnionPlan's input: a base
// with no clause but subs[0]'s projection, DISTINCT, ORDER BY and LIMIT (the
// others' are not read), so that all they have in common is hoisted, and each
// sub-query's relations, joins and selections.
func Whole(subs []*query.Query) (*query.Query, []query.Query) {
	adds := make([]query.Query, len(subs))
	for i, s := range subs {
		adds[i] = query.Query{From: s.From, Joins: s.Joins, Selections: s.Selections}
	}
	s := subs[0]
	return &query.Query{Project: s.Project, Distinct: s.Distinct, OrderBy: s.OrderBy, Limit: s.Limit}, adds
}

// hoist splits a union into B and what each sub-query adds to it. Whatever
// every sub-query states is hoisted into B, in adds[0]'s order, as
// intersecting the sub-queries would; the rest of each is its addition.
func hoist(q *query.Query, adds []query.Query) *UnionPlan {
	base := q.Clone()
	for _, r := range adds[0].From {
		if states(q, adds, func(s *query.Query) bool { return s.HasRelation(r) }) {
			base.From = append(base.From, r)
		}
	}
	for _, j := range adds[0].Joins {
		if states(q, adds, func(s *query.Query) bool { return s.HasJoin(j) }) {
			base.Joins = append(base.Joins, j)
		}
	}
	for _, x := range adds[0].Selections {
		if states(q, adds, func(s *query.Query) bool { return slices.Contains(s.Selections, x) }) {
			base.Selections = append(base.Selections, x)
		}
	}
	p := &UnionPlan{base: base, adds: make([]query.Query, len(adds))}
	for i := range adds {
		s := &adds[i]
		p.adds[i] = query.Query{
			From:       beyond(s.From, base.HasRelation),
			Joins:      beyond(s.Joins, base.HasJoin),
			Selections: beyond(s.Selections, func(x query.Selection) bool { return slices.Contains(base.Selections, x) }),
		}
	}
	return p
}

// beyond returns the elements of s that in does not hold: s itself when it
// holds none of them, nil when it holds all.
func beyond[T any](s []T, in func(T) bool) []T {
	n := 0
	for _, x := range s {
		if !in(x) {
			n++
		}
	}
	switch n {
	case 0:
		return nil
	case len(s):
		return s[:n:n]
	}
	out := make([]T, 0, n)
	for _, x := range s {
		if !in(x) {
			out = append(out, x)
		}
	}
	return out
}

// parts splits what sub-query s adds to base into its two kinds of part: its
// conditions over base's own columns (res: Selections and Joins), and the
// connected components of the relations it adds (components), each with the
// base attributes its joins attach it at (on[c], aligned with the component's
// projection, its side of those joins).
func parts(base, s *query.Query) (res query.Query, comps []*query.Query, on [][]schema.AttrRef) {
	var groupBuf [8]int
	group := append(groupBuf[:0], make([]int, len(s.From))...) // the component of each relation s names, −1 for B's
	comps = components(s, base, group)
	on = make([][]schema.AttrRef, len(comps))
	at := func(r string) int {
		if k := slices.Index(s.From, r); k >= 0 {
			return group[k]
		}
		return -1 // one of B's
	}
	// attach joins component c at the base attribute left, in s's join order.
	attach := func(c int, left, right schema.AttrRef) {
		on[c], comps[c].Project = append(on[c], left), append(comps[c].Project, right)
	}
	for _, sel := range s.Selections {
		if c := at(sel.Attr.Relation); c >= 0 {
			comps[c].Selections = append(comps[c].Selections, sel)
		} else if !slices.Contains(base.Selections, sel) {
			res.Selections = append(res.Selections, sel)
		}
	}
	for _, j := range s.Joins {
		lc, rc := at(j.Left.Relation), at(j.Right.Relation)
		switch {
		case lc >= 0 && rc >= 0:
			comps[lc].Joins = append(comps[lc].Joins, j)
		case lc >= 0:
			attach(lc, j.Right, j.Left)
		case rc >= 0:
			attach(rc, j.Left, j.Right)
		case !base.HasJoin(j):
			res.Joins = append(res.Joins, j)
		}
	}
	return res, comps, on
}

// states reports whether every sub-query — q's clauses with adds[k]'s, for
// each k — has what has looks for.
func states(q *query.Query, adds []query.Query, has func(*query.Query) bool) bool {
	if has(q) {
		return true
	}
	for k := range adds {
		if !has(&adds[k]) {
			return false
		}
	}
	return true
}

// components splits the relations s adds to the base into the groups its
// joins connect — one query each, so far only its FROM — and records in
// group[i] the group of s.From[i], −1 for a base relation. A group lists its
// relations from the first one s names outwards: a preference path's
// selective far end is a join's build side, unless the tree walks in from an
// indexed far end (reducerSeed).
func components(s, base *query.Query, group []int) []*query.Query {
	var comps []*query.Query
	for i := range group {
		group[i] = -1
	}
	var grow func(r string)
	grow = func(r string) {
		i := slices.Index(s.From, r)
		if i < 0 || group[i] >= 0 || base.HasRelation(r) {
			return
		}
		q := comps[len(comps)-1]
		q.From, group[i] = append(q.From, r), len(comps)-1
		for _, j := range s.Joins {
			if j.Left.Relation == r {
				grow(j.Right.Relation)
			} else if j.Right.Relation == r {
				grow(j.Left.Relation)
			}
		}
	}
	for i, r := range s.From {
		if group[i] < 0 && !base.HasRelation(r) {
			comps = append(comps, &query.Query{})
			grow(r)
		}
	}
	return comps
}

// reducerSeed is where the tree of a reducer, or of a sub-query the fallback
// runs, starts: at q.From[0], unless an in-memory table's equality selection
// can start it (Table.OpenEq) and every relation further out, in
// buildJoinTree's order, builds from a column index (indexedBuild). A row
// mark, a key set and the fallback's group table read the rows in any order.
func reducerSeed(ctx context.Context, db *storage.DB, q *query.Query) string {
	selects := func(r string, eq bool) bool {
		return slices.ContainsFunc(q.Selections, func(s query.Selection) bool {
			return s.Attr.Relation == r && (!eq || s.Op == query.OpEq)
		})
	}
	var usedBuf [8]bool // the walk allocates nothing for a path of a few joins
	var condBuf [2]query.Join
	used := append(usedBuf[:0], make([]bool, len(q.Joins))...)
	for _, r := range q.From[1:] {
		if _, mem := db.MustTable(r).(*storage.Table); !mem || !selects(r, true) {
			continue
		}
		joined := map[string]bool{r: true}
		clear(used)
		for len(joined) < len(q.From) {
			next, conds := pickNext(q, joined, used, condBuf[:0])
			if next == "" || indexedBuild(ctx, db.MustTable(next), conds, selects(next, false)) == nil {
				break
			}
			joined[next] = true
		}
		if len(joined) == len(q.From) {
			return r
		}
	}
	return q.From[0]
}

// each pulls every row of it through fn.
func each(it iter.Iterator, fn func(storage.Row) error) error {
	for {
		row, ok, err := it.Next()
		if !ok || err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// closing closes it, returning err or else what Close reports.
func closing(it iter.Iterator, err error) error {
	if cerr := it.Close(); err == nil {
		return cerr
	}
	return err
}
