package prefspace

import (
	"fmt"
	"math"
	"testing"

	"cqp/internal/catalog"
	"cqp/internal/estimate"
	"cqp/internal/prefs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/testutil"
	"cqp/internal/value"
)

// figure1Setup builds the paper's running example: the movie DB, the
// Figure 1 profile, and the query "select title from MOVIE".
func figure1Setup(t *testing.T) (*estimate.Estimator, *prefs.Profile, *Space) {
	t.Helper()
	db := testutil.MovieDB(256) // small blocks so every table has >0 blocks
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
	sp, err := Build(q, profile, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return est, profile, sp
}

func TestFigure1Extraction(t *testing.T) {
	_, _, sp := figure1Setup(t)
	// Expected implicit preferences anchored at MOVIE:
	//   p3∧p4: MOVIE⋈DIRECTOR, name='W. Allen'  doi = 1.0×0.8 = 0.8
	//   p2∧p1: MOVIE⋈GENRE, genre='musical'     doi = 0.9×0.5 = 0.45
	if sp.K != 2 {
		t.Fatalf("K = %d, want 2; P = %v", sp.K, sp.P)
	}
	if math.Abs(sp.P[0].Doi-0.8) > 1e-12 {
		t.Errorf("P[0].Doi = %g, want 0.8 (best first)", sp.P[0].Doi)
	}
	if math.Abs(sp.P[1].Doi-0.45) > 1e-12 {
		t.Errorf("P[1].Doi = %g, want 0.45", sp.P[1].Doi)
	}
	if sp.P[0].Imp.Sel.Attr.Relation != "DIRECTOR" {
		t.Errorf("P[0] = %v", sp.P[0].Imp)
	}
	if err := sp.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCostMaxPruning(t *testing.T) {
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	profile, _ := prefs.ParseProfile(`
doi(MOVIE.year >= 1990) = 0.9
doi(MOVIE.mid = GENRE.mid) = 0.8
doi(GENRE.genre = 'comedy') = 0.7
`)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	// Base query cost: blocks(MOVIE). The GENRE path costs more. Pick a
	// cmax between the two so only the atomic year preference survives.
	base := est.QueryCost(q)
	sp, err := Build(q, profile, est, Options{CostMax: base + 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 1 || sp.P[0].Imp.Sel.Attr.Attr != "year" {
		t.Errorf("pruning failed: %v", sp.P)
	}
}

func TestMaxKCap(t *testing.T) {
	_, profile, _ := figure1Setup(t)
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	sp, err := Build(q, profile, est, Options{MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 1 {
		t.Fatalf("K = %d, want 1", sp.K)
	}
	// The cap keeps the best preference.
	if math.Abs(sp.P[0].Doi-0.8) > 1e-12 {
		t.Errorf("kept doi %g, want the best (0.8)", sp.P[0].Doi)
	}
}

func TestAccessors(t *testing.T) {
	_, _, sp := figure1Setup(t)
	sup := sp.SupremeCost()
	sum := sp.P[0].Cost + sp.P[1].Cost
	if math.Abs(sup-sum) > 1e-9 {
		t.Errorf("SupremeCost = %g, want %g", sup, sum)
	}
	empty := &Space{BaseCost: 7}
	if empty.SupremeCost() != 7 {
		t.Error("empty space supreme cost is base cost")
	}
}

func TestIrrelevantPreferencesIgnored(t *testing.T) {
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	// Preferences anchored at DIRECTOR are unrelated to a GENRE-only query.
	profile, _ := prefs.ParseProfile(`
doi(DIRECTOR.name = 'W. Allen') = 0.8
doi(GENRE.genre = 'comedy') = 0.3
`)
	q := sqlparse.MustParse(db.Schema(), "SELECT genre FROM GENRE")
	sp, err := Build(q, profile, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 1 || sp.P[0].Imp.Sel.Attr.Relation != "GENRE" {
		t.Errorf("P = %v", sp.P)
	}
}

func TestAcyclicTraversalTerminates(t *testing.T) {
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	// Bidirectional join preferences form a cycle in the personalization
	// graph; acyclicity of paths must keep the traversal finite.
	profile, _ := prefs.ParseProfile(`
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(GENRE.mid = MOVIE.mid) = 0.9
doi(MOVIE.year >= 1980) = 0.6
doi(GENRE.genre = 'comedy') = 0.5
`)
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	sp, err := Build(q, profile, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Expect: year (atomic), MOVIE->GENRE genre, and GENRE->MOVIE->... no:
	// from MOVIE, paths: [M->G] + genre; [M->G, G->M] revisits MOVIE, pruned.
	// Also the direct selection year, and via... exactly 2 + the year pref.
	if sp.K < 2 || sp.K > 3 {
		t.Errorf("K = %d, P = %v", sp.K, sp.P)
	}
	if err := sp.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDoiMonotoneAlongPaths(t *testing.T) {
	_, profile, sp := figure1Setup(t)
	// Formula 2: the composed doi of an implicit preference never exceeds
	// the doi of its terminal atomic selection preference.
	termDoi := make(map[string]float64)
	for _, a := range profile.Atoms() {
		if a.IsSelection() {
			termDoi[a.Sel.String()] = a.Doi
		}
	}
	for _, p := range sp.P {
		want, ok := termDoi[p.Imp.Sel.String()]
		if !ok {
			t.Fatalf("unknown terminal selection %s", p.Imp.Sel)
		}
		if p.Doi > want+1e-12 {
			t.Errorf("implicit doi %g exceeds terminal atomic doi %g for %s",
				p.Doi, want, p.Imp)
		}
	}
}

func TestEmptyQueryFails(t *testing.T) {
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	profile := prefs.NewProfile()
	if _, err := Build(&query.Query{}, profile, est, Options{}); err == nil {
		t.Error("empty query must fail")
	}
}

func TestValidateCatchesCorruptSpaces(t *testing.T) {
	_, _, sp := figure1Setup(t)
	// Corrupt K.
	bad := *sp
	bad.K = 5
	if bad.Validate() == nil {
		t.Error("K mismatch must fail")
	}
	// Corrupt doi range.
	bad2 := *sp
	bad2.P = append([]Pref(nil), sp.P...)
	bad2.P[0].Doi = 2
	if bad2.Validate() == nil {
		t.Error("doi out of range must fail")
	}
	// Break doi sort order.
	bad3 := *sp
	bad3.P = []Pref{sp.P[1], sp.P[0]}
	if bad3.Validate() == nil {
		t.Error("unsorted P must fail")
	}
	// Negative cost.
	bad4 := *sp
	bad4.P = append([]Pref(nil), sp.P...)
	bad4.P[0].Cost = -1
	if bad4.Validate() == nil {
		t.Error("negative cost must fail")
	}
	// Shrink out of range.
	bad5 := *sp
	bad5.P = append([]Pref(nil), sp.P...)
	bad5.P[0].Shrink = 1.5
	if bad5.Validate() == nil {
		t.Error("shrink out of range must fail")
	}
}

func TestLongerPathsViaCast(t *testing.T) {
	// A two-hop path MOVIE -> CAST -> ACTOR exercises path extension.
	db := testutil.MovieDB(256)
	s := db.Schema()
	s.MustAddRelation("ACTOR", "aid",
		schema.Column{Name: "aid", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString})
	s.MustAddRelation("CAST", "",
		schema.Column{Name: "mid", Type: value.KindInt},
		schema.Column{Name: "aid", Type: value.KindInt})
	// A chain MOVIE -> L1 -> … -> L5 with a selection at every hop
	// exercises the maxPathLen bound.
	for i := 1; i <= 5; i++ {
		s.MustAddRelation(fmt.Sprintf("L%d", i), "",
			schema.Column{Name: "a", Type: value.KindInt},
			schema.Column{Name: "b", Type: value.KindInt})
	}
	db2 := storage.NewDB(s, 256) // fresh db over the extended schema
	db2.MustTable("ACTOR").MustInsert(value.Int(1), value.Str("A. Actor"))
	db2.MustTable("CAST").MustInsert(value.Int(1), value.Int(1))
	db2.MustTable("MOVIE").MustInsert(value.Int(1), value.Str("M"), value.Int(2000), value.Int(90), value.Int(1))
	for i := 1; i <= 5; i++ {
		db2.MustTable(fmt.Sprintf("L%d", i)).MustInsert(value.Int(1), value.Int(1))
	}
	est := estimate.New(catalog.MustBuild(db2), 1)
	profile, err := prefs.ParseProfile(`
doi(MOVIE.mid = CAST.mid) = 0.9
doi(CAST.aid = ACTOR.aid) = 0.9
doi(ACTOR.name = 'A. Actor') = 0.8
`)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(s, "SELECT title FROM MOVIE")
	sp, err := Build(q, profile, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 1 || len(sp.P[0].Imp.Path) != 2 {
		t.Fatalf("two-hop preference not extracted: %+v", sp.P)
	}
	if math.Abs(sp.P[0].Doi-0.9*0.9*0.8) > 1e-12 {
		t.Errorf("composed doi = %g", sp.P[0].Doi)
	}

	chain := "doi(MOVIE.mid = L1.a) = 0.9\n"
	for i := 1; i <= 5; i++ {
		if i < 5 {
			chain += fmt.Sprintf("doi(L%d.b = L%d.a) = 0.9\n", i, i+1)
		}
		chain += fmt.Sprintf("doi(L%d.b = 1) = 0.8\n", i)
	}
	profile, err = prefs.ParseProfile(chain)
	if err != nil {
		t.Fatal(err)
	}
	sp, err = Build(q, profile, est, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Selections one to four hops out are extracted, nearest (highest doi)
	// first; the one five hops out lies past the bound.
	if sp.K != 4 {
		t.Fatalf("K = %d, want 4: %v", sp.K, sp.P)
	}
	for i, p := range sp.P {
		if len(p.Imp.Path) != i+1 || p.Imp.Sel.Attr.Relation != fmt.Sprintf("L%d", i+1) {
			t.Errorf("P[%d] = %v, want the selection on L%d over %d hops", i, p.Imp, i+1, i+1)
		}
	}
}
