package estimate

import (
	"math"
	"testing"

	"cqp/internal/catalog"
	"cqp/internal/exec"
	"cqp/internal/prefs"
	"cqp/internal/sqlparse"
	"cqp/internal/testutil"
)

func TestDefaults(t *testing.T) {
	db := testutil.MovieDB(256)
	e := New(catalog.MustBuild(db), 0)
	if e.BlockMillis != DefaultBlockMillis {
		t.Errorf("BlockMillis = %g", e.BlockMillis)
	}
	if e.Catalog() == nil {
		t.Error("Catalog accessor")
	}
}

func TestQueryCostMatchesExecutorIO(t *testing.T) {
	db := testutil.MovieDB(256)
	e := New(catalog.MustBuild(db), 1)
	for _, sql := range []string{
		"SELECT title FROM MOVIE",
		"SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did",
		"SELECT title FROM MOVIE, DIRECTOR, GENRE WHERE MOVIE.did = DIRECTOR.did AND MOVIE.mid = GENRE.mid",
	} {
		q := sqlparse.MustParse(db.Schema(), sql)
		res, err := exec.Eval(db, q)
		if err != nil {
			t.Fatal(err)
		}
		// With b=1ms, estimated cost in ms equals executor block reads:
		// the estimator's model and the executor's I/O discipline agree.
		if got, want := e.QueryCost(q), float64(res.BlockReads); got != want {
			t.Errorf("%s: cost %g, io %g", sql, got, want)
		}
	}
}

func TestQuerySizeExactOnEquality(t *testing.T) {
	db := testutil.MovieDB(256)
	e := New(catalog.MustBuild(db), 1)
	// Single-table equality: exact thanks to exact frequencies.
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE WHERE year = 1979")
	if got := e.QuerySize(q); math.Abs(got-1) > 1e-9 {
		t.Errorf("size = %g, want 1", got)
	}
	// FK join MOVIE ⋈ DIRECTOR: |M| × |D| × 1/3 = 6.
	q2 := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did")
	if got := e.QuerySize(q2); math.Abs(got-6) > 1e-9 {
		t.Errorf("join size = %g, want 6", got)
	}
}

func prefOf(t *testing.T, profileLine string, pathLines ...string) prefs.Implicit {
	t.Helper()
	var path []prefs.Atomic
	for _, l := range pathLines {
		a, err := prefs.ParseAtomic(l)
		if err != nil {
			t.Fatal(err)
		}
		path = append(path, a)
	}
	sel, err := prefs.ParseAtomic(profileLine)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := prefs.NewImplicit(path, sel)
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

func TestSubQueryCost(t *testing.T) {
	db := testutil.MovieDB(256)
	cat := catalog.MustBuild(db)
	e := New(cat, 1)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	atomic := prefOf(t, "doi(MOVIE.year >= 1990) = 0.5")
	// Atomic preference on MOVIE adds no relations: cost = blocks(MOVIE).
	if got, want := e.SubQueryCost(q, atomic), float64(cat.Blocks("MOVIE")); got != want {
		t.Errorf("atomic cost = %g, want %g", got, want)
	}
	pathPref := prefOf(t, "doi(DIRECTOR.name = 'W. Allen') = 0.8", "doi(MOVIE.did = DIRECTOR.did) = 1.0")
	want := float64(cat.Blocks("MOVIE") + cat.Blocks("DIRECTOR"))
	if got := e.SubQueryCost(q, pathPref); got != want {
		t.Errorf("path cost = %g, want %g", got, want)
	}
	// A preference over a relation already in Q must not double-charge it.
	q2 := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did")
	if got := e.SubQueryCost(q2, pathPref); got != want {
		t.Errorf("no-new-relation cost = %g, want %g", got, want)
	}
}

func TestShrinkMatchesTruth(t *testing.T) {
	db := testutil.MovieDB(256)
	e := New(catalog.MustBuild(db), 1)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	// W. Allen directs 3 of 6 movies; the model predicts
	// |D|(=3) × joinsel(1/3) × sel(name)(1/3) = 1/3. Truth is 3/6 = 1/2 —
	// same order, off by the uniformity assumption. Verify the model value.
	p := prefOf(t, "doi(DIRECTOR.name = 'W. Allen') = 0.8", "doi(MOVIE.did = DIRECTOR.did) = 1.0")
	if got := e.Shrink(q, p); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("shrink = %g, want 1/3", got)
	}
	// Shrink is clamped to [0,1].
	if s := e.Shrink(q, prefOf(t, "doi(MOVIE.year >= 0) = 0.5")); s < 0 || s > 1 {
		t.Errorf("shrink out of range: %g", s)
	}
}
