package cqp_test

// The disk backend must be indistinguishable from the in-memory backend at
// the API surface: the same workload generated into a persistent block
// store must produce byte-identical personalized queries and solutions
// across the paper's full algorithm grid, and a reopened store the same
// ranked answers. (That the executor answers identically on both backends,
// row for row and block for block, is pinned by internal/exec's
// TestGoldenExec.)

import (
	"fmt"
	"strings"
	"testing"

	"cqp"
	"cqp/internal/blockstore"
	"cqp/internal/exec"
	"cqp/internal/workload"
)

// renderRanked serializes a ranked union answer, order and all.
func renderRanked(res *exec.UnionResult) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r.Key {
			b.WriteString(v.SQL())
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "doi=%.12f matched=%v\n", r.Doi, r.Matched)
	}
	return b.String()
}

func TestDiskBackendMatchesMemAcrossAlgorithms(t *testing.T) {
	const movies, dbSeed = 600, 57
	mem := cqp.SyntheticMovieDB(movies, dbSeed)

	st, err := blockstore.Open(t.TempDir(), cqp.MovieSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	disk, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(disk, workload.DBConfig{Movies: movies, Seed: dbSeed})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	pm := cqp.NewPersonalizer(mem)
	pd := cqp.NewPersonalizer(disk)
	profile := cqp.SyntheticProfile(40, 58)
	queries := []string{
		"SELECT title FROM MOVIE",
		"SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND MOVIE.year >= 1950",
	}
	for qi, sql := range queries {
		q, err := cqp.ParseQuery(mem.Schema(), sql)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := pm.EstimateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, mult := range []float64{3, 12} {
			prob := cqp.Problem2(base * mult)
			for _, alg := range cqp.AlgorithmNames() {
				name := fmt.Sprintf("q%d/x%g/%s", qi, mult, alg)
				rm, err := pm.Personalize(q, profile, prob, cqp.WithAlgorithm(alg), cqp.WithMaxK(12))
				if err != nil {
					t.Fatalf("%s: mem: %v", name, err)
				}
				rd, err := pd.Personalize(q, profile, prob, cqp.WithAlgorithm(alg), cqp.WithMaxK(12))
				if err != nil {
					t.Fatalf("%s: disk: %v", name, err)
				}
				if rm.SQL != rd.SQL {
					t.Fatalf("%s: personalized SQL differs:\nmem:  %s\ndisk: %s", name, rm.SQL, rd.SQL)
				}
				if rm.Solution.Doi != rd.Solution.Doi || rm.Solution.Cost != rd.Solution.Cost {
					t.Fatalf("%s: solutions differ: mem doi=%v cost=%v, disk doi=%v cost=%v",
						name, rm.Solution.Doi, rm.Solution.Cost, rd.Solution.Doi, rd.Solution.Cost)
				}
			}
		}
	}
	if s := st.Stats(); s.PageReads == 0 {
		t.Fatal("disk run never read a page — the block store was not actually serving")
	}
}

// Reopening the store must serve the same answers as the freshly generated
// one: persistence survives a full close/open cycle mid-grid.
func TestDiskBackendReopenServesSameAnswers(t *testing.T) {
	const movies, dbSeed = 400, 9
	dir := t.TempDir()
	st, err := blockstore.Open(dir, cqp.MovieSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(disk, workload.DBConfig{Movies: movies, Seed: dbSeed})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	run := func(db *cqp.DB) string {
		t.Helper()
		p := cqp.NewPersonalizer(db)
		q, err := cqp.ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := p.EstimateQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Personalize(q, cqp.SyntheticProfile(30, 10), cqp.Problem2(base*8), cqp.WithMaxK(10))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := res.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return res.SQL + "\n" + renderRanked(ans)
	}

	want := run(cqp.SyntheticMovieDB(movies, dbSeed))
	st2, err := blockstore.Open(dir, cqp.MovieSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	disk2, err := st2.DB()
	if err != nil {
		t.Fatal(err)
	}
	if got := run(disk2); got != want {
		t.Fatal("reopened block store serves a different answer than the in-memory backend")
	}
}
