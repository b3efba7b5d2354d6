package rewrite

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/workload"
)

// subqueryUnionSQL is the union form's definition: every sub-query built,
// cloned with DISTINCT set, rendered on its own, and the pieces assembled.
// SQL() must write the same text without building any of them.
func subqueryUnionSQL(p *Personalized) string {
	if len(p.Dois) == 0 {
		return p.Base.SQL()
	}
	proj := make([]string, len(p.Base.Project))
	for i, a := range p.Base.Project {
		proj[i] = a.String()
	}
	projList := strings.Join(proj, ", ")
	subs := make([]string, len(p.Subs()))
	for i, s := range p.Subs() {
		d := s.Clone()
		d.Distinct = true
		subs[i] = d.SQL()
	}
	cmp, n := ">=", 1
	if p.AllMatch {
		cmp, n = "=", len(subs)
	}
	return fmt.Sprintf("SELECT %s FROM (%s) GROUP BY %s HAVING COUNT(*) %s %d",
		projList, strings.Join(subs, " UNION ALL "), projList, cmp, n)
}

// unionQueries is the generator's queries plus the shapes it never draws:
// DISTINCT, ORDER BY and LIMIT (repeated in every sub-query), two projected
// columns, and base joins a preference's path restates — one of them in the
// other orientation.
func unionQueries(t *testing.T, env *workload.Env) []*query.Query {
	t.Helper()
	queries := workload.Queries(64, 7)
	for _, sql := range []string{
		"SELECT DISTINCT title FROM MOVIE",
		"SELECT title, year FROM MOVIE WHERE duration <= 150 ORDER BY year DESC, title LIMIT 25",
		"SELECT title, DIRECTOR.name FROM MOVIE, DIRECTOR WHERE DIRECTOR.did = MOVIE.did ORDER BY title",
		"SELECT title FROM MOVIE, CAST WHERE MOVIE.mid = CAST.mid AND year >= 1950",
		"SELECT title FROM MOVIE, CAST, ACTOR WHERE CAST.mid = MOVIE.mid AND CAST.aid = ACTOR.aid LIMIT 3",
	} {
		queries = append(queries, sqlparse.MustParse(env.DB.Schema(), sql))
	}
	return queries
}

// TestUnionWriterMatchesSubqueries: over queries × profiles × how many
// preferences are selected × match semantics, and every merged grouping
// those selections yield, the one-pass text equals the text assembled from
// the materialized sub-queries' own SQL.
func TestUnionWriterMatchesSubqueries(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 300, Seed: 1}, 1)
	var profiles []*prefs.Profile
	for _, u := range workload.Profiles(20, workload.ProfileConfig{SelectionPrefs: 60, Seed: 3}) {
		// Half as generated, half re-parsed from text as the server has them.
		if len(profiles)%2 == 1 {
			parsed, err := prefs.ParseProfile(u.String())
			if err != nil {
				t.Fatal(err)
			}
			u = parsed
		}
		profiles = append(profiles, u)
	}
	cases, merged := 0, 0
	for qi, q := range unionQueries(t, env) {
		for ui, u := range profiles {
			sp, err := prefspace.Build(q, u, env.Est, prefspace.Options{MaxK: 20})
			if err != nil {
				t.Fatal(err)
			}
			if sp.K < 3 {
				t.Fatalf("q%d/u%d: K = %d", qi, ui, sp.K)
			}
			for _, selected := range [][]prefspace.Pref{
				nil, sp.P[:1], {sp.P[0], sp.P[sp.K/2], sp.P[sp.K-1]}, sp.P,
			} {
				for _, p := range []*Personalized{
					Construct(q, selected, true),
					Construct(q, selected, false),
					ConstructMerged(q, selected, env.DB.Schema()),
				} {
					cases++
					if p.ends != nil && len(p.ends) < len(selected) {
						merged++
					}
					got := p.SQL()
					if p.plan != nil {
						t.Fatalf("q%d/u%d: SQL() built the union plan", qi, ui)
					}
					if want := subqueryUnionSQL(p); got != want {
						t.Fatalf("q%d/u%d, %d selected, all-match %v, groups %v:\n got %s\nwant %s",
							qi, ui, len(selected), p.AllMatch, p.ends, got, want)
					}
				}
			}
		}
	}
	if merged == 0 {
		t.Error("no selection merged two preferences into one sub-query")
	}
	t.Logf("%d unions, %d of them with a merged group", cases, merged)
}

// TestConstructSQLAllocs: constructing a K = 20 personalized query and
// rendering it costs a handful of allocations — the result, Q's clauses, the
// writer's scratch — and no union plan exists until an execution asks. It
// makes 9; 11 while integrate appended through a pointer, which moved the
// writer's relation and join scratch to the heap.
func TestConstructSQLAllocs(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 300, Seed: 1}, 1)
	q := sqlparse.MustParse(env.DB.Schema(), "SELECT title FROM MOVIE WHERE year >= 1950 AND duration <= 170")
	u := workload.GenerateProfile(workload.ProfileConfig{SelectionPrefs: 60, Seed: 3})
	sp, err := prefspace.Build(q, u, env.Est, prefspace.Options{MaxK: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 20 {
		t.Fatalf("K = %d, want 20", sp.K)
	}
	var sql string
	if n := testing.AllocsPerRun(200, func() { sql = Construct(q, sp.P, true).SQL() }); n > 10 {
		t.Errorf("Construct(q, twenty, true).SQL() allocates %.0f times, want ≤ 10", n)
	}
	p := Construct(q, sp.P, true)
	if p.SQL() != sql || p.NumSubs() != 20 || p.MinMatches() != 20 {
		t.Fatalf("%d sub-queries, threshold %d", p.NumSubs(), p.MinMatches())
	}
	if p.plan != nil {
		t.Fatal("union plan built before any execution")
	}
	res, err := p.ExecuteContext(context.Background(), env.DB)
	if err != nil {
		t.Fatal(err)
	}
	if p.plan == nil || len(res.Subs) != 20 {
		t.Fatalf("execution ran %d sub-queries, want 20 from one built plan", len(res.Subs))
	}
}
