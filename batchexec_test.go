package cqp_test

// ExecuteBatch's shared-work path (cross-request estimate memo + shared
// base-relation scans) must be indistinguishable from running every item
// alone: byte-identical personalized SQL and solutions, and the same
// answer size and per-item I/O charge, across the paper's full algorithm
// grid, on both the in-memory and the persistent block-store backends. This
// is the acceptance test for the batch fast path. (That a shared scan
// changes no answer row is pinned by internal/exec's TestGoldenExec.)

import (
	"context"
	"fmt"
	"testing"

	"cqp"
	"cqp/internal/blockstore"
	"cqp/internal/workload"
)

func TestExecuteBatchMatchesSequentialAcrossAlgorithms(t *testing.T) {
	const movies, dbSeed = 400, 57
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

	profile := cqp.SyntheticProfile(40, 58)
	for _, backend := range []struct {
		name string
		db   *cqp.DB
	}{{"mem", mem}, {"disk", disk}} {
		t.Run(backend.name, func(t *testing.T) {
			shared := cqp.NewPersonalizer(backend.db) // memo on, batch scans shared
			seq := cqp.NewPersonalizer(backend.db)    // one item at a time, memo off
			seq.SetEstimateMemo(false)

			queries := []string{
				"SELECT title FROM MOVIE",
				"SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND MOVIE.year >= 1950",
			}
			var items []cqp.BatchItem
			for _, sql := range queries {
				q, err := cqp.ParseQuery(backend.db.Schema(), sql)
				if err != nil {
					t.Fatal(err)
				}
				base, _, err := shared.EstimateQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				for _, alg := range cqp.AlgorithmNames() {
					items = append(items, cqp.BatchItem{
						Query: q, Profile: profile, Problem: cqp.Problem2(base * 12),
						Opts: []cqp.Option{cqp.WithAlgorithm(alg), cqp.WithMaxK(10)},
					})
				}
				// One duplicate per query exercises dedup + Exec copying.
				items = append(items, items[len(items)-1])
			}

			res := shared.ExecuteBatch(context.Background(), items, 4, 0)
			if len(res) != len(items) {
				t.Fatalf("got %d results for %d items", len(res), len(items))
			}
			for i, it := range items {
				name := fmt.Sprintf("item %d", i)
				if res[i].Err != nil {
					t.Fatalf("%s: batch: %v", name, res[i].Err)
				}
				if res[i].Result == nil || res[i].Exec == nil {
					t.Fatalf("%s: missing Result/Exec", name)
				}
				rr, err := seq.Personalize(it.Query, it.Profile, it.Problem, it.Opts...)
				if err != nil {
					t.Fatalf("%s: sequential personalize: %v", name, err)
				}
				ar, err := rr.Execute()
				if err != nil {
					t.Fatalf("%s: sequential execute: %v", name, err)
				}
				br := res[i]
				if br.Result.SQL != rr.SQL {
					t.Fatalf("%s: SQL differs:\nbatch: %s\nseq:   %s", name, br.Result.SQL, rr.SQL)
				}
				if br.Result.Solution.Doi != rr.Solution.Doi || br.Result.Solution.Cost != rr.Solution.Cost ||
					br.Result.Solution.Size != rr.Solution.Size {
					t.Fatalf("%s: solutions differ: batch %+v, seq %+v", name, br.Result.Solution, rr.Solution)
				}
				if len(br.Exec.Rows) != len(ar.Rows) {
					t.Fatalf("%s: answer sizes differ: batch %d rows, seq %d", name, len(br.Exec.Rows), len(ar.Rows))
				}
				if br.Exec.BlockReads != ar.BlockReads {
					t.Fatalf("%s: charged I/O differs: batch %d, seq %d", name, br.Exec.BlockReads, ar.BlockReads)
				}
			}
			for _, i := range []int{len(cqp.AlgorithmNames()), len(items) - 1} {
				if !res[i].Duplicate {
					t.Errorf("item %d: expected Duplicate", i)
				}
			}
		})
	}
}
