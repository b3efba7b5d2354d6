package exec

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/testutil"
)

// titles extracts the first projected column as sorted strings.
func titles(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].String()
	}
	sort.Strings(out)
	return out
}

func evalSQL(t *testing.T, db *storage.DB, sql string) *Result {
	t.Helper()
	q, err := sqlparse.Parse(db.Schema(), sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleTableScan(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, "SELECT title FROM MOVIE")
	if len(res.Rows) != 6 {
		t.Errorf("got %d rows", len(res.Rows))
	}
	if res.BlockReads != db.MustTable("MOVIE").Blocks() {
		t.Errorf("io = %d, want %d", res.BlockReads, db.MustTable("MOVIE").Blocks())
	}
}

func TestSelectionPushdown(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, "SELECT title FROM MOVIE WHERE year >= 1980")
	got := titles(res.Rows)
	want := []string{"Everyone Says I Love You", "The Shining"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestTwoWayJoin(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, `SELECT title FROM MOVIE, DIRECTOR
		WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'`)
	got := titles(res.Rows)
	want := []string{"Bananas", "Everyone Says I Love You", "Manhattan"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("rows = %v, want %v", got, want)
	}
	wantIO := db.MustTable("MOVIE").Blocks() + db.MustTable("DIRECTOR").Blocks()
	if res.BlockReads != wantIO {
		t.Errorf("io = %d, want %d (each relation scanned once)", res.BlockReads, wantIO)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, `SELECT title FROM MOVIE, DIRECTOR, GENRE
		WHERE MOVIE.did = DIRECTOR.did AND MOVIE.mid = GENRE.mid
		AND DIRECTOR.name = 'W. Allen' AND GENRE.genre = 'comedy'`)
	got := titles(res.Rows)
	want := []string{"Bananas", "Everyone Says I Love You", "Manhattan"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestDuplicatesAndDistinct(t *testing.T) {
	db := testutil.MovieDB(0)
	// Manhattan has two genres, so the plain join yields it twice.
	res := evalSQL(t, db, `SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.year = 1979`)
	if len(res.Rows) != 2 {
		t.Errorf("plain join rows = %d, want 2 (duplicate titles)", len(res.Rows))
	}
	res = evalSQL(t, db, `SELECT DISTINCT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.year = 1979`)
	if len(res.Rows) != 1 {
		t.Errorf("distinct rows = %d, want 1", len(res.Rows))
	}
}

func TestEmptyResult(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, "SELECT title FROM MOVIE WHERE year > 3000")
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestDisconnectedCartesian(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, "SELECT title, name FROM MOVIE, DIRECTOR")
	if len(res.Rows) != 18 {
		t.Errorf("cartesian rows = %d, want 18", len(res.Rows))
	}
}

func TestEvalValidates(t *testing.T) {
	db := testutil.MovieDB(0)
	q, _ := query.New([]string{"NOPE"}, "NOPE.x")
	if _, err := Eval(db, q); err == nil {
		t.Error("invalid query must fail")
	}
}

// TestJoinAgainstNestedLoopOracle cross-checks the hash-join pipeline with a
// naive nested-loop evaluation on a larger generated workload.
func TestJoinAgainstNestedLoopOracle(t *testing.T) {
	db := testutil.MovieDB(0)
	q := sqlparse.MustParse(db.Schema(), `SELECT title, genre FROM MOVIE, GENRE
		WHERE MOVIE.mid = GENRE.mid AND MOVIE.year >= 1960`)
	res, err := Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Naive oracle.
	var want []string
	mt, gt := db.MustTable("MOVIE"), db.MustTable("GENRE")
	mrows, err := storage.AllRows(mt)
	if err != nil {
		t.Fatal(err)
	}
	grows, err := storage.AllRows(gt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mrows {
		if m[2].AsInt() < 1960 {
			continue
		}
		for _, g := range grows {
			if m[0].Equal(g[0]) {
				want = append(want, m[1].String()+"/"+g[1].String())
			}
		}
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].String()+"/"+r[1].String())
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("hash join disagrees with nested loop:\n%v\n%v", got, want)
	}
}

func TestEvalUnionIntersection(t *testing.T) {
	db := testutil.MovieDB(0)
	// The paper's Section 4.2 example: Q1 = W. Allen movies, Q2 = musicals.
	q1 := sqlparse.MustParse(db.Schema(), `SELECT title FROM MOVIE, DIRECTOR
		WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'`)
	q2 := sqlparse.MustParse(db.Schema(), `SELECT title FROM MOVIE, GENRE
		WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'musical'`)
	res, err := wholePlan(db.Schema(), []*query.Query{q1, q2}).EvalContext(context.Background(), db, []float64{0.8, 0.45}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Key[0].String() != "Everyone Says I Love You" {
		t.Fatalf("HAVING COUNT(*)=2 must yield the one musical W. Allen movie, got %v", res.Rows)
	}
	// doi = 1 - (1-0.8)(1-0.45) = 0.89
	if math.Abs(res.Rows[0].Doi-0.89) > 1e-9 {
		t.Errorf("doi = %g, want 0.89", res.Rows[0].Doi)
	}
	if len(res.Rows[0].Matched) != 2 {
		t.Errorf("matched = %v", res.Rows[0].Matched)
	}
	// I/O is the sum of sub-query scans (Formula 6's execution counterpart).
	wantIO := db.MustTable("MOVIE").Blocks()*2 + db.MustTable("DIRECTOR").Blocks() + db.MustTable("GENRE").Blocks()
	if res.BlockReads != wantIO {
		t.Errorf("io = %d, want %d", res.BlockReads, wantIO)
	}
}

func TestEvalUnionAnyMatchRanking(t *testing.T) {
	db := testutil.MovieDB(0)
	q1 := sqlparse.MustParse(db.Schema(), `SELECT title FROM MOVIE, DIRECTOR
		WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'W. Allen'`)
	q2 := sqlparse.MustParse(db.Schema(), `SELECT title FROM MOVIE, GENRE
		WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'musical'`)
	res, err := wholePlan(db.Schema(), []*query.Query{q1, q2}).EvalContext(context.Background(), db, []float64{0.8, 0.45}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("any-match should yield 3 movies, got %d", len(res.Rows))
	}
	// The movie matching both preferences ranks first.
	if res.Rows[0].Key[0].String() != "Everyone Says I Love You" {
		t.Errorf("top row = %v", res.Rows[0])
	}
	if res.Rows[1].Doi != 0.8 || res.Rows[2].Doi != 0.8 {
		t.Errorf("singles should carry doi 0.8: %v", res.Rows[1:])
	}
	// Ties are broken deterministically by key.
	if res.Rows[1].Key[0].String() > res.Rows[2].Key[0].String() {
		t.Error("tie-break ordering violated")
	}
}

func TestEvalUnionDuplicateSafety(t *testing.T) {
	db := testutil.MovieDB(0)
	// Manhattan appears under two genres: a plain UNION ALL would count it
	// twice within one sub-query; per-sub-query dedup must prevent that.
	q := sqlparse.MustParse(db.Schema(), `SELECT title FROM MOVIE, GENRE
		WHERE MOVIE.mid = GENRE.mid AND MOVIE.year = 1979`)
	res, err := wholePlan(db.Schema(), []*query.Query{q, q.Clone()}).EvalContext(context.Background(), db, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Matched) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalUnionErrors(t *testing.T) {
	db := testutil.MovieDB(0)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	if _, err := wholePlan(db.Schema(), []*query.Query{q}).EvalContext(context.Background(), db, []float64{0.1, 0.2}, 1); err == nil {
		t.Error("doi arity mismatch must fail")
	}
	bad, _ := query.New([]string{"NOPE"}, "NOPE.x")
	if _, err := wholePlan(db.Schema(), []*query.Query{bad}).EvalContext(context.Background(), db, nil, 1); err == nil {
		t.Error("invalid sub-query must fail")
	}
	// minMatches < 1 clamps to 1.
	res, err := wholePlan(db.Schema(), []*query.Query{q}).EvalContext(context.Background(), db, nil, 0)
	if err != nil || len(res.Rows) != 6 {
		t.Errorf("clamped minMatches: %v, %v", res, err)
	}
}

func TestRealCost(t *testing.T) {
	got := RealCost(100, 2*time.Millisecond, time.Millisecond)
	if got != 102*time.Millisecond {
		t.Errorf("RealCost = %v", got)
	}
}

// TestJoinOrderInvariance: shuffling FROM and join clause order never
// changes the result multiset (the join-tree builder must be order-proof).
func TestJoinOrderInvariance(t *testing.T) {
	db := testutil.MovieDB(0)
	base := sqlparse.MustParse(db.Schema(), `SELECT title, genre, name
		FROM MOVIE, GENRE, DIRECTOR
		WHERE MOVIE.mid = GENRE.mid AND MOVIE.did = DIRECTOR.did AND MOVIE.year >= 1960`)
	want, err := Eval(db, base)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(rows []storage.Row) string {
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = r[0].String() + "/" + r[1].String() + "/" + r[2].String()
		}
		sort.Strings(keys)
		return strings.Join(keys, "|")
	}
	wantKey := canon(want.Rows)

	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		q := base.Clone()
		rng.Shuffle(len(q.From), func(i, j int) { q.From[i], q.From[j] = q.From[j], q.From[i] })
		rng.Shuffle(len(q.Joins), func(i, j int) { q.Joins[i], q.Joins[j] = q.Joins[j], q.Joins[i] })
		// Also randomly flip join orientations.
		for i := range q.Joins {
			if rng.Intn(2) == 0 {
				q.Joins[i].Left, q.Joins[i].Right = q.Joins[i].Right, q.Joins[i].Left
			}
		}
		got, err := Eval(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if canon(got.Rows) != wantKey {
			t.Fatalf("trial %d: shuffled query changed the answer:\n%s", trial, q.SQL())
		}
		// I/O is order-independent too: every relation scanned once.
		if got.BlockReads != want.BlockReads {
			t.Fatalf("trial %d: io %d != %d", trial, got.BlockReads, want.BlockReads)
		}
	}
}

// TestEvalUnionConcurrencyDeterminism: the union must produce identical
// ranked output across repeated runs (it was written against the
// goroutine-per-sub-query executor; the one-pass plan keeps the promise).
func TestEvalUnionConcurrencyDeterminism(t *testing.T) {
	db := testutil.MovieDB(0)
	subs := make([]*query.Query, 0, 8)
	dois := make([]float64, 0, 8)
	genres := []string{"comedy", "drama", "horror", "thriller", "musical", "comedy", "horror", "drama"}
	for i, g := range genres {
		subs = append(subs, sqlparse.MustParse(db.Schema(),
			"SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = '"+g+"'"))
		dois = append(dois, 0.1*float64(i+1))
	}
	first, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(u *UnionResult) string {
		s := ""
		for _, r := range u.Rows {
			s += r.Key[0].String() + "@"
		}
		return s
	}
	want := render(first)
	for i := 0; i < 20; i++ {
		got, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != want {
			t.Fatalf("run %d: nondeterministic union output", i)
		}
	}
}
