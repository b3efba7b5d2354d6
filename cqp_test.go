package cqp

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cqp/internal/fault"
)

// paperDB builds the paper's example movie database through the public API.
func paperDB(t *testing.T) *DB {
	t.Helper()
	s := NewSchema()
	s.MustAddRelation("MOVIE", "mid",
		Column{Name: "mid", Type: Int(0).Kind()},
		Column{Name: "title", Type: Str("").Kind()},
		Column{Name: "year", Type: Int(0).Kind()},
		Column{Name: "duration", Type: Int(0).Kind()},
		Column{Name: "did", Type: Int(0).Kind()})
	s.MustAddRelation("DIRECTOR", "did",
		Column{Name: "did", Type: Int(0).Kind()},
		Column{Name: "name", Type: Str("").Kind()})
	s.MustAddRelation("GENRE", "",
		Column{Name: "mid", Type: Int(0).Kind()},
		Column{Name: "genre", Type: Str("").Kind()})
	s.MustAddJoin("MOVIE.did", "DIRECTOR.did")
	s.MustAddJoin("MOVIE.mid", "GENRE.mid")
	db := NewDB(s, 512)
	d := db.MustTable("DIRECTOR")
	d.MustInsert(Int(1), Str("W. Allen"))
	d.MustInsert(Int(2), Str("S. Kubrick"))
	m := db.MustTable("MOVIE")
	m.MustInsert(Int(1), Str("Bananas"), Int(1971), Int(82), Int(1))
	m.MustInsert(Int(2), Str("Everyone Says I Love You"), Int(1996), Int(101), Int(1))
	m.MustInsert(Int(3), Str("The Shining"), Int(1980), Int(146), Int(2))
	g := db.MustTable("GENRE")
	g.MustInsert(Int(1), Str("comedy"))
	g.MustInsert(Int(2), Str("musical"))
	g.MustInsert(Int(3), Str("horror"))
	return db
}

const figure1 = `
doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(MOVIE.did = DIRECTOR.did) = 1.0
doi(DIRECTOR.name = 'W. Allen') = 0.8
`

func TestEndToEndPaperExample(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, err := ParseProfile(figure1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(db.Schema(), "select title from MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Personalize(q, profile, Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	// With a generous budget both preferences integrate:
	// doi = 1 − (1−0.8)(1−0.45) = 0.89.
	if math.Abs(res.Solution.Doi-0.89) > 1e-9 {
		t.Errorf("doi = %v, want 0.89", res.Solution.Doi)
	}
	if len(res.Preferences) != 2 {
		t.Errorf("preferences = %v", res.Preferences)
	}
	for _, want := range []string{"UNION ALL", "HAVING COUNT(*) = 2", "W. Allen", "musical"} {
		if !strings.Contains(res.SQL, want) {
			t.Errorf("SQL missing %q:\n%s", want, res.SQL)
		}
	}
	rows, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0].Key[0].String() != "Everyone Says I Love You" {
		t.Errorf("rows = %v", rows.Rows)
	}
}

func TestTightBudgetDropsPreferences(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")

	est, _, err := p.EstimateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// Budget below any single sub-query: personalization degenerates to Q.
	res, err := p.Personalize(q, profile, Problem2(est))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Set) != 0 || res.SQL != q.SQL() {
		t.Errorf("expected bare query, got %s", res.SQL)
	}
	// Budget below even the base query: the sentinel infeasibility error.
	if _, err := p.Personalize(q, profile, Problem2(est/10)); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible problem: err = %v, want ErrInfeasible", err)
	}
}

func TestAllProblemsThroughFacade(t *testing.T) {
	db := SyntheticMovieDB(400, 1)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(30, 2)
	q, err := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	cost, size, err := p.EstimateQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	problems := []Problem{
		Problem1(1, size),
		Problem2(cost * 20),
		Problem3(cost*20, 1, size),
		Problem4(0.5),
		Problem5(0.5, 1, size),
		Problem6(1, size),
	}
	for i, prob := range problems {
		res, err := p.Personalize(q, profile, prob, WithMaxK(10))
		if err != nil {
			t.Errorf("problem %d (%s): %v", i+1, prob, err)
			continue
		}
		if !res.Solution.Feasible {
			t.Errorf("problem %d: infeasible solution returned", i+1)
		}
		if _, err := res.Execute(); err != nil {
			t.Errorf("problem %d execute: %v", i+1, err)
		}
	}
}

func TestOptions(t *testing.T) {
	db := SyntheticMovieDB(400, 1)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(30, 2)
	q, _ := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	cost, _, _ := p.EstimateQuery(q)

	for _, name := range AlgorithmNames() {
		res, err := p.Personalize(q, profile, Problem2(cost*10),
			WithAlgorithm(name), WithMaxK(8), WithStateBudget(100000))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(res.Solution.Set) > 8 {
			t.Errorf("%s: MaxK not honored", name)
		}
	}
	res, err := p.Personalize(q, profile, Problem2(cost*10), WithAnyMatch(), WithMaxK(5))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.SQL, ">= 1") {
		t.Errorf("any-match SQL: %s", res.SQL)
	}
	if _, err := p.Personalize(q, profile, Problem2(cost*10), WithAlgorithm("NOPE")); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestValidationErrors(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")

	if _, err := p.Personalize(q, profile, Problem{}); err == nil {
		t.Error("invalid problem must fail")
	}
	badProfile := NewProfile()
	if err := badProfile.AddSelection(AttrRef{Relation: "NOPE", Attr: "x"}, 0, Int(1), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Personalize(q, badProfile, Problem2(100)); err == nil {
		t.Error("invalid profile must fail")
	}
	badQ := &Query{From: []string{"NOPE"}}
	if _, err := p.Personalize(badQ, profile, Problem2(100)); err == nil {
		t.Error("invalid query must fail")
	}
	if _, _, err := p.EstimateQuery(badQ); err == nil {
		t.Error("EstimateQuery must validate")
	}
}

func TestEvaluatePlainQuery(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE where year >= 1980")
	res, err := p.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestRefreshPicksUpNewData(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	costBefore, _, _ := p.EstimateQuery(q)
	m := db.MustTable("MOVIE")
	for i := 10; i < 200; i++ {
		m.MustInsert(Int(int64(i)), Str("Filler"), Int(2000), Int(90), Int(1))
	}
	costStale, _, _ := p.EstimateQuery(q)
	if costStale != costBefore {
		t.Error("estimates should be stale before Refresh")
	}
	p.Refresh()
	costAfter, _, _ := p.EstimateQuery(q)
	if costAfter <= costBefore {
		t.Errorf("refresh did not pick up growth: %v -> %v", costBefore, costAfter)
	}
}

func TestPersonalizeFront(t *testing.T) {
	db := SyntheticMovieDB(400, 1)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(30, 2)
	q, _ := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	cost, _, _ := p.EstimateQuery(q)

	front, err := p.PersonalizeFront(q, profile, cost*20, 0, 0, 6, WithMaxK(10))
	if err != nil {
		t.Fatal(err)
	}
	pts := front.Points
	if len(pts) == 0 || len(pts) > 6 {
		t.Fatalf("front size = %d", len(pts))
	}
	if front.Truncated {
		t.Error("unbudgeted frontier reported truncated")
	}
	if front.Stats.Algorithm != "PARETO" {
		t.Errorf("front stats algorithm = %q, want PARETO", front.Stats.Algorithm)
	}
	knees := 0
	for i, fp := range pts {
		if fp.CostMS > cost*20+1e-9 {
			t.Errorf("point %d violates cost bound", i)
		}
		if i > 0 && (fp.CostMS < pts[i-1].CostMS || fp.Doi <= pts[i-1].Doi) {
			t.Errorf("front not sorted/strictly improving at %d", i)
		}
		if fp.Knee {
			knees++
		}
	}
	if knees != 1 {
		t.Errorf("expected exactly one knee, got %d", knees)
	}
	// Validation errors propagate.
	if _, err := p.PersonalizeFront(&Query{From: []string{"NOPE"}}, profile, 0, 0, 0, 0); err == nil {
		t.Error("invalid query must fail")
	}
}

// TestPersonalizeFrontSurfacesFault: an injected search fault aborts the
// frontier search and comes back as the error, as Personalize returns it —
// not as an empty front marked truncated, which a caller would take for an
// answer.
func TestPersonalizeFrontSurfacesFault(t *testing.T) {
	db := SyntheticMovieDB(400, 1)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(30, 2)
	q, _ := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	cost, _, _ := p.EstimateQuery(q)

	plan, err := fault.Parse("search.expand:err:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()
	if _, err := p.Personalize(q, profile, Problem2(cost*20), WithMaxK(10)); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Personalize under search.expand:err:1: err %v, want the injected fault", err)
	}
	front, err := p.PersonalizeFront(q, profile, cost*20, 0, 0, 6, WithMaxK(10))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("PersonalizeFront under search.expand:err:1: err %v, front %+v; want the injected fault", err, front)
	}
}

func TestWithMergedSubQueries(t *testing.T) {
	db := SyntheticMovieDB(400, 1)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(30, 2)
	q, _ := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	cost, _, _ := p.EstimateQuery(q)

	plain, err := p.Personalize(q, profile, Problem2(cost*10), WithMaxK(8))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := p.Personalize(q, profile, Problem2(cost*10), WithMaxK(8), WithMergedSubQueries())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := plain.Execute()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := merged.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != len(mr.Rows) {
		t.Errorf("merged changed the answer: %d vs %d rows", len(pr.Rows), len(mr.Rows))
	}
	if mr.BlockReads > pr.BlockReads {
		t.Errorf("merging increased I/O: %d vs %d", mr.BlockReads, pr.BlockReads)
	}
	if _, err := p.Personalize(q, profile, Problem2(cost*10), WithMergedSubQueries(), WithAnyMatch()); err == nil {
		t.Error("merge + any-match must be rejected")
	}
}

func TestCSVLoadDumpThroughFacade(t *testing.T) {
	db := SyntheticMovieDB(50, 1)
	var buf strings.Builder
	if err := DumpCSV(db, "MOVIE", &buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewDB(MovieSchema(), 0)
	n, err := LoadCSV(fresh, "MOVIE", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || fresh.MustTable("MOVIE").RowCount() != 50 {
		t.Errorf("loaded %d rows", n)
	}
	if _, err := LoadCSV(fresh, "NOPE", strings.NewReader("")); err == nil {
		t.Error("unknown relation must fail")
	}
	if err := DumpCSV(fresh, "NOPE", &buf); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestExplain(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, profile, Problem2(10000))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Explain()
	for _, want := range []string{
		"problem: MAX doi",
		"solver:",
		"candidates (K = 2",
		"W. Allen",
		"musical",
		"solution: 2/2 preferences",
		"cost bound:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Chosen preferences are starred.
	if strings.Count(out, "\n * ") != 2 && strings.Count(out, " * doi") != 2 {
		t.Errorf("expected two starred candidates:\n%s", out)
	}
}

func TestPersonalizeTopK(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	profile, _ := ParseProfile(figure1)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	top, err := p.PersonalizeTopK(q, profile, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Row[0].String() != "Everyone Says I Love You" || top[0].Matched != 2 {
		t.Errorf("first answer = %+v", top[0])
	}
	if top[0].Doi < top[1].Doi {
		t.Error("top-k must be doi-ordered")
	}
	if _, err := p.PersonalizeTopK(q, profile, 1000, 0); err == nil {
		t.Error("k = 0 must fail")
	}
}

func TestEmptyProfilePersonalization(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	q, _ := ParseQuery(db.Schema(), "select title from MOVIE")
	res, err := p.Personalize(q, NewProfile(), Problem2(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Preferences) != 0 || res.SQL != q.SQL() {
		t.Errorf("empty profile must return the bare query: %s", res.SQL)
	}
	rows, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 3 {
		t.Errorf("bare query rows = %d", len(rows.Rows))
	}
}

func TestEmptyDatabasePersonalization(t *testing.T) {
	db := NewDB(MovieSchema(), 0)
	p := NewPersonalizer(db)
	profile := SyntheticProfile(10, 1)
	q, _ := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	// Empty tables: base cost 0, every sub-query cost 0 — personalization
	// is trivially feasible and execution returns nothing.
	res, err := p.Personalize(q, profile, Problem2(100))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 0 {
		t.Errorf("rows from empty db: %d", len(rows.Rows))
	}
}

func TestUnrelatedProfilePersonalization(t *testing.T) {
	db := paperDB(t)
	p := NewPersonalizer(db)
	// Preferences anchored at DIRECTOR only, query over GENRE: unrelated.
	profile, _ := ParseProfile(`doi(DIRECTOR.name = 'W. Allen') = 0.8`)
	q, _ := ParseQuery(db.Schema(), "SELECT DISTINCT genre FROM GENRE")
	res, err := p.Personalize(q, profile, Problem2(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Preferences) != 0 {
		t.Errorf("unrelated profile should contribute nothing: %v", res.Preferences)
	}
}
