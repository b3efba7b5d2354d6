package rewrite

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cqp/internal/exec"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// Integrate builds the sub-query Q ∧ p1 ∧ … for the preferences one
// sub-query integrates: Q's clauses, each followed by what integrate adds.
func Integrate(q *query.Query, group ...prefspace.Pref) *query.Query {
	add := integrate(q, query.Query{}, group)
	sq := q.Clone()
	sq.From = append(sq.From, add.From...)
	sq.Joins = append(sq.Joins, add.Joins...)
	sq.Selections = append(sq.Selections, add.Selections...)
	return sq
}

// Subs materializes the sub-queries — Q ∧ the preferences of each, built by
// Integrate; just [Q] when no preferences were selected. Executions never
// build them: it is the reference the union plan and SQL() are held to.
func (p *Personalized) Subs() []*query.Query {
	subs := make([]*query.Query, p.NumSubs())
	for i := range subs {
		subs[i] = Integrate(p.Base, p.group(i)...)
	}
	return subs
}

// TestPlanMatchesSubqueries: over the union grid of
// TestUnionWriterMatchesSubqueries, the plan factored from Q and the
// preferences deep-equals the one the materialized sub-queries, stated whole
// (exec.Whole), are planned into, and execution gives the answer and the
// verdict that plan gives — the refusal of Q's LIMIT included, with the same
// text.
func TestPlanMatchesSubqueries(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 300, Seed: 1}, 1)
	profiles := workload.Profiles(20, workload.ProfileConfig{SelectionPrefs: 60, Seed: 3})
	ctx := context.Background()
	plans, executed, refused := 0, 0, 0
	for qi, q := range unionQueries(t, env) {
		for ui, u := range profiles {
			sp, err := prefspace.Build(q, u, env.Est, prefspace.Options{MaxK: 20})
			if err != nil {
				t.Fatal(err)
			}
			for si, selected := range [][]prefspace.Pref{
				nil, sp.P[:1], {sp.P[0], sp.P[sp.K/2], sp.P[sp.K-1]}, sp.P,
			} {
				for _, p := range []*Personalized{
					Construct(q, selected, true),
					Construct(q, selected, false),
					ConstructMerged(q, selected, env.DB.Schema()),
				} {
					name := fmt.Sprintf("q%d/u%d/s%d/all-match %v/groups %v", qi, ui, si, p.AllMatch, p.ends)
					subs := p.Subs()
					plans++
					whole, adds := exec.Whole(subs)
					ref := exec.NewUnionPlan(env.DB.Schema(), whole, adds)
					if !reflect.DeepEqual(p.planFor(env.DB.Schema()), ref) {
						t.Fatalf("%s: the plan of Q and the preferences differs from the sub-queries'", name)
					}
					// Executing every union would take a minute; one in nine, and
					// every refusal, which costs nothing, is enough.
					if q.Limit == 0 && plans%9 != 0 {
						continue
					}
					executed++
					got, gerr := p.ExecuteContext(ctx, env.DB)
					want, werr := ref.EvalContext(ctx, env.DB, p.Dois, p.MinMatches())
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("%s: refused with %v, the sub-queries with %v", name, gerr, werr)
					}
					if werr != nil {
						refused++
						continue
					}
					got.Elapsed, got.Base, got.Rank, want.Elapsed, want.Base, want.Rank = 0, 0, 0, 0, 0, 0
					for i := range got.Subs {
						got.Subs[i].Elapsed, want.Subs[i].Elapsed = 0, 0
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: the plan answers %d rows at %d blocks, the sub-queries %d at %d",
							name, got.Total, got.BlockReads, want.Total, want.BlockReads)
					}
				}
			}
		}
	}
	if refused == 0 {
		t.Error("no union was refused: the grid lost its LIMIT query")
	}
	t.Logf("%d plans, %d executed, %d of them refused", plans, executed, refused)
}

// TestPlanRefusesAsSubqueries: a preference that names an unknown relation,
// compares a column with a literal of another kind or joins columns of two
// kinds makes its sub-query invalid; execution refuses it at its index, with
// the text Validate gives for the built sub-query.
func TestPlanRefusesAsSubqueries(t *testing.T) {
	db, sp := mergeSetup(t)
	var unknown, wrongKind, wrongJoin prefspace.Pref
	for _, p := range sp.P {
		switch p.Imp.Sel.Attr.Relation {
		case "GENRE":
			unknown = p
			unknown.Imp.Sel.Attr.Relation = "STUDIO"
			wrongJoin = p
			wrongJoin.Imp.Path = []prefs.JoinCond{{
				Left:  schema.AttrRef{Relation: "MOVIE", Attr: "title"},
				Right: schema.AttrRef{Relation: "GENRE", Attr: "mid"},
			}}
		case "DIRECTOR":
			wrongKind = p
			wrongKind.Imp.Sel.Attr.Attr, wrongKind.Imp.Sel.Value = "name", value.Int(7)
		}
	}
	for _, bad := range []prefspace.Pref{unknown, wrongKind, wrongJoin} {
		for at := range sp.K {
			selected := append([]prefspace.Pref(nil), sp.P...)
			selected[at] = bad
			for _, p := range []*Personalized{Construct(sp.Query, selected, true), ConstructMerged(sp.Query, selected, db.Schema())} {
				_, got := p.ExecuteContext(context.Background(), db)
				whole, adds := exec.Whole(p.Subs())
				_, want := exec.NewUnionPlan(db.Schema(), whole, adds).EvalContext(context.Background(), db, p.Dois, p.MinMatches())
				if want == nil || got == nil || got.Error() != want.Error() {
					t.Errorf("%s at %d, groups %v: refused with %v, the sub-queries with %v", bad.Imp.Sel, at, p.ends, got, want)
				}
			}
		}
	}
}

// TestPlanBuiltOnce: concurrent executions of one personalized query, whole
// and top-k, share one plan, built by whichever gets there first, and each
// answers as a fresh personalized query does. Run under -race.
func TestPlanBuiltOnce(t *testing.T) {
	db, sp := mergeSetup(t)
	ctx := context.Background()
	for _, construct := range []func() *Personalized{
		func() *Personalized { return Construct(sp.Query, sp.P, true) },
		func() *Personalized { return Construct(sp.Query, sp.P, false) },
		func() *Personalized { return ConstructMerged(sp.Query, sp.P, db.Schema()) },
	} {
		shared := construct()
		wantAll, err := construct().ExecuteContext(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := construct().ExecuteTopKContext(ctx, db, 3)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		plans := make([]*exec.UnionPlan, 8)
		for g := range plans {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var got *exec.UnionResult
				var err error
				want := wantAll
				if g%2 == 0 {
					got, err = shared.ExecuteContext(ctx, db)
				} else {
					got, err = shared.ExecuteTopKContext(ctx, db, 3)
					want = wantTop
				}
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.Total != want.Total || got.BlockReads != want.BlockReads {
					t.Errorf("goroutine %d: %v (%d of %d blocks), a fresh query %v (%d of %d)",
						g, got.Rows, got.Total, got.BlockReads, want.Rows, want.Total, want.BlockReads)
				}
				plans[g] = shared.planFor(db.Schema())
			}(g)
		}
		wg.Wait()
		for g, p := range plans {
			if p != plans[0] {
				t.Errorf("goroutine %d saw its own plan", g)
			}
		}
	}
}
