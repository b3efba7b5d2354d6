package rewrite

import (
	"math"
	"strings"
	"testing"

	"cqp/internal/catalog"
	"cqp/internal/estimate"
	"cqp/internal/exec"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/testutil"
)

// paperSetup reproduces the Section 4.2 example: the movies query plus the
// two preferences selected by the system (W. Allen and musical).
func paperSetup(t *testing.T) (*storage.DB, *prefspace.Space) {
	t.Helper()
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	profile, err := prefs.ParseProfile(`
doi(GENRE.genre = 'musical') = 0.5
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(MOVIE.did = DIRECTOR.did) = 1.0
doi(DIRECTOR.name = 'W. Allen') = 0.8
`)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	sp, err := prefspace.Build(q, profile, est, prefspace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 2 {
		t.Fatalf("expected the paper's two implicit preferences, got %d", sp.K)
	}
	return db, sp
}

func TestIntegrateBuildsSubQueries(t *testing.T) {
	db, sp := paperSetup(t)
	q1 := Integrate(sp.Query, sp.P[0]) // W. Allen
	if !q1.HasRelation("DIRECTOR") || len(q1.Joins) != 1 || len(q1.Selections) != 1 {
		t.Errorf("q1 = %s", q1.SQL())
	}
	if err := q1.Validate(db.Schema()); err != nil {
		t.Errorf("q1 invalid: %v", err)
	}
	want := "SELECT MOVIE.title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'"
	if q1.SQL() != want {
		t.Errorf("q1 SQL = %s", q1.SQL())
	}
}

func TestIntegrateNoDuplicateJoins(t *testing.T) {
	db, sp := paperSetup(t)
	// Base query already joins MOVIE with DIRECTOR.
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did")
	sq := Integrate(q, sp.P[0])
	if len(sq.Joins) != 1 {
		t.Errorf("join duplicated: %s", sq.SQL())
	}
}

func TestConstructSQLShape(t *testing.T) {
	_, sp := paperSetup(t)
	p := Construct(sp.Query, sp.P, true)
	sql := p.SQL()
	for _, want := range []string{
		"UNION ALL",
		"GROUP BY MOVIE.title",
		"HAVING COUNT(*) = 2",
		"DIRECTOR.name = 'W. Allen'",
		"GENRE.genre = 'musical'",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	if p.MinMatches() != 2 {
		t.Errorf("MinMatches = %d", p.MinMatches())
	}
	any := Construct(sp.Query, sp.P, false)
	if !strings.Contains(any.SQL(), "HAVING COUNT(*) >= 1") || any.MinMatches() != 1 {
		t.Errorf("any-match SQL = %s", any.SQL())
	}
}

func TestConstructEmptySelection(t *testing.T) {
	db, sp := paperSetup(t)
	p := Construct(sp.Query, nil, true)
	if p.SQL() != sp.Query.SQL() {
		t.Errorf("empty selection should degrade to Q: %s", p.SQL())
	}
	res, err := p.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d, want all 6 movies", len(res.Rows))
	}
}

func TestExecuteAllMatch(t *testing.T) {
	db, sp := paperSetup(t)
	p := Construct(sp.Query, sp.P, true)
	res, err := p.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Key[0].String() != "Everyone Says I Love You" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// doi = 1 − (1−0.8)(1−0.45) = 0.89.
	if math.Abs(res.Rows[0].Doi-0.89) > 1e-9 {
		t.Errorf("doi = %g", res.Rows[0].Doi)
	}
}

func TestExecuteAnyMatchRanksByDoi(t *testing.T) {
	db, sp := paperSetup(t)
	p := Construct(sp.Query, sp.P, false)
	res, err := p.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (three W. Allen movies, one also musical)", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1].Doi < res.Rows[i].Doi {
			t.Error("results must be ranked by decreasing doi")
		}
	}
}

// TestRewriteEquivalence checks the paper's rewriting against direct
// conjunctive evaluation: executing the union-all/having form equals
// evaluating Q with all preference conditions conjoined (intersection
// semantics on the projection).
func TestRewriteEquivalence(t *testing.T) {
	db, sp := paperSetup(t)
	p := Construct(sp.Query, sp.P, true)
	res, err := p.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	// Direct conjunction: Q plus every preference's joins and selections.
	direct := sp.Query.Clone()
	for _, pref := range sp.P {
		for _, j := range pref.Imp.Path {
			direct.AddJoin(j)
		}
		direct.AddSelection(pref.Imp.Sel)
	}
	direct.Distinct = true
	dres, err := exec.Eval(db, direct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(dres.Rows) {
		t.Fatalf("union/having %d rows, direct conjunction %d rows", len(res.Rows), len(dres.Rows))
	}
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[r.Key[0].String()] = true
	}
	for _, r := range dres.Rows {
		if !got[r[0].String()] {
			t.Errorf("direct row %v missing from union result", r)
		}
	}
}
