package core

import (
	"fmt"
	"testing"

	"cqp/internal/prefspace"
	"cqp/internal/workload"
)

// servingInstances draws the instances the repository benchmark's regimes
// solve — generated profiles 100, 101, … over 8 generated queries on a
// 2000-movie database, each at every K of ks, under the serving budget of
// 2^20 states — and hands them to each in that order.
func servingInstances(t testing.TB, profiles int, ks []int, each func(profile, k int, in *Instance)) {
	t.Helper()
	env := workload.NewEnv(workload.DBConfig{Movies: 2000, Seed: 9}, 1)
	queries := workload.Queries(8, 11)
	for i := 0; i < profiles; i++ {
		profile := workload.GenerateProfile(workload.ProfileConfig{Seed: int64(100 + i)})
		for _, k := range ks {
			sp, err := prefspace.Build(queries[i%len(queries)], profile, env.Est, prefspace.Options{MaxK: k})
			if err != nil {
				t.Fatal(err)
			}
			in := FromSpace(sp)
			in.StateBudget = 1 << 20
			each(100+i, k, in)
		}
	}
}

// TestDefaultNeverBelowPaperAlgorithms replays the regimes the repository
// benchmark draws — 40 generated profiles at K = 20 and 10 — and holds
// Solve's default to the answer the paper's algorithm for that problem
// gives: never truncated, feasible whenever that answer is, objective no
// lower within 1e-12, and on a cmax nothing exceeds the doi of all K
// preferences to the last bit.
func TestDefaultNeverBelowPaperAlgorithms(t *testing.T) {
	higher, solves := 0, 0
	servingInstances(t, 40, []int{20, 10}, func(profile, k int, in *Instance) {
		sup := in.SupremeCost()
		compare := func(prob Problem, paper Solution) {
			t.Helper()
			label := fmt.Sprintf("profile %d K=%d (%s)", profile, k, prob)
			got, err := Solve(in, prob, "")
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Stats.Truncated {
				t.Errorf("%s: truncated after %d states", label, got.Stats.StatesVisited)
			}
			if paper.Feasible && (!got.Feasible || got.Doi < paper.Doi-1e-12) {
				t.Errorf("%s: feasible %v doi %v, %s has %v", label, got.Feasible, got.Doi, paper.Stats.Algorithm, paper.Doi)
			}
			solves++
			if got.Doi > paper.Doi {
				higher++
			}
		}
		if k == 10 {
			// execute_cold: barely binding.
			for _, f := range []float64{0.5, 0.75, 1} {
				compare(Problem2(f*sup), CMaxBounds(in, f*sup))
			}
			return
		}
		// personalize_cold's band, and serve_hot's fills below it.
		for _, f := range []float64{0.30, 0.32, 0.36, 0.40} {
			compare(Problem2(f*sup), CMaxBounds(in, f*sup))
		}
		for _, u := range []float64{0, 0.5, 1} {
			cmax, smax := (0.22+0.05*u)*sup, (0.25+0.08*u)*in.BaseSize
			compare(Problem3(cmax, 1, smax), CBoundariesP3(in, cmax, 1, smax))
			compare(Problem1(1, smax), SBoundariesP1(in, 1, smax))
		}
		// profile_churn's reads: the bound binds nothing.
		got, err := Solve(in, Problem2(1.001*sup), "")
		if all := in.SetDoi(allIndices(in.K)); err != nil || got.Doi != all {
			t.Errorf("profile %d: non-binding cmax: doi %v (%d of %d preferences), all-K %v, err %v",
				profile, got.Doi, len(got.Set), in.K, all, err)
		}
	})
	t.Logf("%d solves, doi above the paper algorithm's on %d", solves, higher)
}
