package rewrite

import (
	"sort"
	"strings"
	"testing"

	"cqp/internal/catalog"
	"cqp/internal/estimate"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/testutil"
)

// mergeSetup extracts a preference space with two DIRECTOR-path
// preferences (functional: did is DIRECTOR's key), one MOVIE-anchor
// preference, and two GENRE-path preferences (multi-valued).
func mergeSetup(t *testing.T) (*storage.DB, *prefspace.Space) {
	t.Helper()
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	profile, err := prefs.ParseProfile(`
doi(MOVIE.mid = GENRE.mid) = 0.95
doi(MOVIE.did = DIRECTOR.did) = 0.9
doi(DIRECTOR.name <> 'S. Kubrick') = 0.8
doi(DIRECTOR.did <= 3) = 0.7
doi(MOVIE.year >= 1950) = 0.6
doi(GENRE.genre = 'comedy') = 0.5
doi(GENRE.genre = 'musical') = 0.4
`)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	sp, err := prefspace.Build(q, profile, est, prefspace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 5 {
		t.Fatalf("K = %d, want 5", sp.K)
	}
	return db, sp
}

func TestConstructMergedGrouping(t *testing.T) {
	db, sp := mergeSetup(t)
	merged := ConstructMerged(sp.Query, sp.P, db.Schema())
	// 5 preferences; the two DIRECTOR-path ones share a sub-query, the
	// MOVIE-anchor one is alone, the two GENRE ones stay separate:
	// 4 sub-queries total.
	if merged.NumSubs() != 4 {
		t.Fatalf("merged into %d sub-queries, want 4:\n%s", merged.NumSubs(), merged.SQL())
	}
	// A merged sub-query holds both DIRECTOR selections.
	foundBoth := false
	for _, sq := range merged.Subs() {
		s := sq.SQL()
		if strings.Contains(s, "S. Kubrick") && strings.Contains(s, "DIRECTOR.did <= 3") {
			foundBoth = true
			if strings.Count(s, "MOVIE.did = DIRECTOR.did") != 1 {
				t.Errorf("join duplicated in merged sub-query: %s", s)
			}
		}
	}
	if !foundBoth {
		t.Errorf("DIRECTOR preferences not merged:\n%s", merged.SQL())
	}
	// GENRE preferences must never merge (multi-valued path).
	for _, sq := range merged.Subs() {
		s := sq.SQL()
		if strings.Contains(s, "comedy") && strings.Contains(s, "musical") {
			t.Errorf("multi-valued GENRE path wrongly merged: %s", s)
		}
	}
}

// TestMergedEquivalence: merged and unmerged all-match personalized
// queries return the same answers and the merged one reads fewer blocks.
func TestMergedEquivalence(t *testing.T) {
	db, sp := mergeSetup(t)
	plain := Construct(sp.Query, sp.P, true)
	merged := ConstructMerged(sp.Query, sp.P, db.Schema())

	pres, err := plain.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := merged.Execute(db)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(res []string) []string { sort.Strings(res); return res }
	var a, b []string
	for _, r := range pres.Rows {
		a = append(a, r.Key[0].String())
	}
	for _, r := range mres.Rows {
		b = append(b, r.Key[0].String())
	}
	if strings.Join(keys(a), "|") != strings.Join(keys(b), "|") {
		t.Fatalf("merged answers differ:\n%v\n%v", a, b)
	}
	if mres.BlockReads >= pres.BlockReads {
		t.Errorf("merging should save I/O: %d vs %d blocks", mres.BlockReads, pres.BlockReads)
	}
}

func TestConstructMergedEmptySelection(t *testing.T) {
	db, sp := mergeSetup(t)
	merged := ConstructMerged(sp.Query, nil, db.Schema())
	if merged.SQL() != sp.Query.SQL() {
		t.Errorf("empty selection should degrade to Q")
	}
}

// TestMergedDoiGrouping: a merged group's doi is the conjunction of its
// members, and the total across groups matches the ungrouped conjunction.
func TestMergedDoiGrouping(t *testing.T) {
	db, sp := mergeSetup(t)
	merged := ConstructMerged(sp.Query, sp.P, db.Schema())
	var groupDois []float64
	groupDois = append(groupDois, merged.Dois...)
	total := prefs.Conjunction(groupDois...)
	var all []float64
	for _, p := range sp.P {
		all = append(all, p.Doi)
	}
	want := prefs.Conjunction(all...)
	if diff := total - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("group doi composition %v != member composition %v", total, want)
	}
}
