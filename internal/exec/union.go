package exec

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
)

// UnionPlan is a personalized union: B, what every sub-query states, and
// what each sub-query adds to it (DESIGN §12). A sub-query is deduplicated on
// a projection that only B's relations supply, so it is a semi-join: the
// groups of B's tuples that all its additions accept. An execution answers
// from the store's base cache (basecache.go), or else by the one-pass plan
// (onePass), derived from the same two parts on first need, once. Nothing
// else in it changes once built, so one plan may run any number of times,
// concurrently.
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

	derived sync.Once
	pass    *onePass // derive's plan, built the first time one runs
}

// onePass is the union factored for one pass over B (run): B's join tree runs
// once, and every tuple is tested against each sub-query's parts.
type onePass struct {
	// base is B projecting the union's projection — the first project
	// columns — and then the further attributes the parts read.
	base    *query.Query
	project int
	// residual[i] is the first kind of part: the conditions of sub-query i
	// over B's own columns (only Selections and Joins are set).
	residual []query.Query
	tags     []tagRel
}

// tagRel is the second kind of part, folded: the key → sub-query-bitset
// relation of the reducers that attach at the base attributes on, at most one
// per sub-query. A reducer is one connected component of the relations a
// sub-query adds, reduced to the distinct values of its side of the attaching
// joins (aligned with on); with none, the one key is empty: an existence test.
type tagRel struct {
	on       []schema.AttrRef
	reducers []reducer
}

type reducer struct {
	sub int
	q   *query.Query
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

// onePass returns the plan's one-pass form, derived on its first call.
func (p *UnionPlan) onePass() *onePass {
	p.derived.Do(func() { p.pass = derive(p.base, p.adds) })
	return p.pass
}

// derive factors a union for one pass: each sub-query's addition becomes its
// parts (parts), B carries every attribute a part reads, and reducers that
// attach at the same attributes fold into one tag relation.
func derive(b *query.Query, adds []query.Query) *onePass {
	base := b.Clone() // of which buildJoinTree reads FROM, WHERE and the projection
	p := &onePass{base: base, project: len(base.Project), residual: make([]query.Query, len(adds))}
	carry := func(a schema.AttrRef) {
		if !slices.Contains(base.Project, a) {
			base.Project = append(base.Project, a)
		}
	}
	for i := range adds {
		res, comps, on := parts(base, &adds[i], carry)
		p.residual[i] = res
		for c, q := range comps {
			// A second component of this sub-query at the same attributes must
			// hold as well as the first, not instead: a relation of its own.
			rel := slices.IndexFunc(p.tags, func(t tagRel) bool {
				return slices.Equal(t.on, on[c]) && t.reducers[len(t.reducers)-1].sub != i
			})
			if rel < 0 {
				rel = len(p.tags)
				p.tags = append(p.tags, tagRel{on: on[c]})
			}
			p.tags[rel].reducers = append(p.tags[rel].reducers, reducer{sub: i, q: q})
		}
	}
	return p
}

// parts splits what sub-query s adds to base into its two kinds of part: its
// conditions over base's own columns (res: Selections and Joins), and the
// connected components of the relations it adds (components), each with the
// base attributes its joins attach it at (on[c], aligned with the component's
// projection, its side of those joins). carry, if not nil, is told every
// base attribute a part reads, in the order the parts read them.
func parts(base, s *query.Query, carry func(schema.AttrRef)) (res query.Query, comps []*query.Query, on [][]schema.AttrRef) {
	var groupBuf [8]int
	group := append(groupBuf[:0], make([]int, len(s.From))...) // the component of each relation s names, −1 for B's
	comps = components(s, base, group)
	on = make([][]schema.AttrRef, len(comps))
	read := func(a schema.AttrRef) {
		if carry != nil {
			carry(a)
		}
	}
	at := func(r string) int {
		if k := slices.Index(s.From, r); k >= 0 {
			return group[k]
		}
		return -1 // one of B's
	}
	// attach joins component c at the base attribute left, in s's join order.
	attach := func(c int, left, right schema.AttrRef) {
		on[c], comps[c].Project = append(on[c], left), append(comps[c].Project, right)
		read(left)
	}
	for _, sel := range s.Selections {
		if c := at(sel.Attr.Relation); c >= 0 {
			comps[c].Selections = append(comps[c].Selections, sel)
		} else if !slices.Contains(base.Selections, sel) {
			res.Selections = append(res.Selections, sel)
			read(sel.Attr)
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
			read(j.Left)
			read(j.Right)
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

// reducerSeed is where a reducer's tree starts: at q.From[0], unless an
// in-memory table's equality selection can start it (Table.OpenEq) and every
// relation further out, in buildJoinTree's order, builds from a column index
// (indexedBuild). A tag relation reads the reducer's rows in any order.
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

// run executes the plan into grouper: B's join tree runs once, every tuple is
// looked up in each tag relation, and its projection is added under the bits
// of the sub-queries whose parts all hold. A reducer's time is booked to its
// sub-query in stats. Every relation opens through buildJoinTree, hence through
// the batch's scan share.
func (p *onePass) run(ctx context.Context, db *storage.DB, grouper *iter.Grouper, stats []SubQueryStat) (err error) {
	tree, err := buildJoinTree(ctx, db, p.base, p.base.From[0])
	if err != nil {
		return err
	}
	// Whatever is built from here on hangs off tree: one Close releases it.
	defer func() { err = closing(tree, err) }()
	full := make([]uint64, (len(stats)+63)/64) // every sub-query's bit
	for i := range stats {
		full[i/64] |= 1 << (i % 64)
	}
	words, width := len(full), len(p.base.Project)
	col := func(a schema.AttrRef) int { return position(p.base.Project, a) }
	// free[t] has the bits of the sub-queries that ask nothing of tag relation
	// t. A relation in memory (rels[t]) is probed in place on its key columns
	// of a tuple (key[t]) and closed after the pass; one that spilled is
	// left-outer-joined to the tree, and its words sit at column at[t].
	free := make([][]uint64, len(p.tags))
	rels := make([]*iter.Grouper, len(p.tags))
	key, at := make([][]int, len(p.tags)), make([]int, len(p.tags))
	defer func() {
		for _, rel := range rels {
			if rel != nil {
				rel.Close() // nothing to report: it never spilled
			}
		}
	}()
	joined := width // columns of a tuple
	for ti, t := range p.tags {
		rel := iter.NewGrouper(ctx, len(stats))
		free[ti] = slices.Clone(full)
		for _, r := range t.reducers {
			free[ti][r.sub/64] &^= 1 << (r.sub % 64)
			// The reducer drains into the relation, whose grouping is its DISTINCT.
			start := time.Now()
			red, err := buildJoinTree(ctx, db, r.q, reducerSeed(ctx, db, r.q))
			if err == nil {
				err = closing(red, each(red, func(row storage.Row) error { return rel.Add(row, r.sub) }))
			}
			stats[r.sub].Elapsed += time.Since(start)
			if err != nil {
				rel.Close()
				return fmt.Errorf("sub-query %d: %w", r.sub, err)
			}
		}
		var buildIdx, out []int
		for k, a := range t.on {
			key[ti], buildIdx = append(key[ti], col(a)), append(buildIdx, k)
		}
		if !rel.Spilled() {
			rels[ti] = rel
			continue
		}
		// A budget is what spills a relation, and the join's Grace path is what
		// holds a spilled build within it.
		for c := 0; c < joined+words; c++ {
			out = append(out, c)
			if c >= joined {
				out[c] += len(t.on) // the words follow the key on the build side
			}
		}
		tree = op(iter.LeftOuterJoin(ctx, tree, op(rel), key[ti], buildIdx, joined, out, nil))
		at[ti], joined = joined, joined+words
	}
	// holds[i] are the residual conditions of sub-query i over a tuple.
	holds := make([][]func(storage.Row) bool, len(p.residual))
	for i, res := range p.residual {
		for _, sel := range res.Selections {
			c := col(sel.Attr)
			holds[i] = append(holds[i], func(r storage.Row) bool { return sel.Op.Test(&r[c], &sel.Value) })
		}
		for _, j := range res.Joins {
			l, r := col(j.Left), col(j.Right)
			holds[i] = append(holds[i], func(row storage.Row) bool { return row[l].Compare(row[r]) == 0 })
		}
	}
	mask := make([]uint64, words)
	found := make([][]uint64, len(p.tags)) // a tuple's words in each relation in memory, nil if none
	return each(tree, func(row storage.Row) error {
		for ti, rel := range rels {
			if rel != nil {
				found[ti] = rel.Lookup(row, key[ti])
			}
		}
		var hit uint64
		for w := range mask {
			m := full[w]
			for ti := range p.tags {
				tagged := free[ti][w]
				if tags := found[ti]; tags != nil {
					tagged |= tags[w]
				} else if rels[ti] == nil && !row[at[ti]+w].IsNull() {
					tagged |= uint64(row[at[ti]+w].AsInt())
				}
				m &= tagged
			}
			for rest := m; rest != 0; rest &= rest - 1 {
				i := w*64 + bits.TrailingZeros64(rest)
				for _, test := range holds[i] {
					if !test(row) {
						m &^= 1 << (i % 64)
						break
					}
				}
			}
			mask[w], hit = m, hit|m
		}
		if hit == 0 {
			return nil
		}
		return grouper.AddMask(row[:p.project], mask)
	})
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
