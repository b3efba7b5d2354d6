package core

import (
	"fmt"
	"math"
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
// Solve's default on Problem 2 to the answer C-MAXBOUNDS gives: never
// truncated, feasible whenever that answer is, objective no lower within
// 1e-12, and on a cmax nothing exceeds the doi of all K preferences to the
// last bit.
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
		// profile_churn's reads: the bound binds nothing.
		got, err := Solve(in, Problem2(1.001*sup), "")
		if all := in.SetDoi(allIndices(in.K)); err != nil || got.Doi != all {
			t.Errorf("profile %d: non-binding cmax: doi %v (%d of %d preferences), all-K %v, err %v",
				profile, got.Doi, len(got.Set), in.K, all, err)
		}
	})
	t.Logf("%d solves, doi above the paper algorithm's on %d", solves, higher)
}

// TestProblems1And3MatchEnumeration holds Solve's default to exhaustive
// enumeration on Problems 1 and 3 at the serving K = 20, over 40 of the
// benchmark's generated instances and personalize_cold's three windows:
// the answer is feasible exactly when some subset of P is, and its doi is
// the optimum within 1e-12.
func TestProblems1And3MatchEnumeration(t *testing.T) {
	runs := 0
	servingInstances(t, 40, []int{20}, func(profile, k int, in *Instance) {
		sup := in.SupremeCost()
		for _, u := range []float64{0, 0.5, 1} {
			cmax, smax := (0.22+0.05*u)*sup, (0.25+0.08*u)*in.BaseSize
			for _, prob := range []Problem{Problem3(cmax, 1, smax), Problem1(1, smax)} {
				got, err := Solve(in, prob, "")
				if err != nil {
					t.Fatalf("profile %d K=%d (%s): %v", profile, k, prob, err)
				}
				feasible, best := enumerate(in, prob)
				if got.Feasible != feasible || feasible && math.Abs(got.Doi-best) > 1e-12 {
					t.Errorf("profile %d K=%d (%s): feasible %v doi %v, enumeration %v %v",
						profile, k, prob, got.Feasible, got.Doi, feasible, best)
				}
				runs++
			}
		}
	})
	t.Logf("%d runs", runs)
}

// enumerate walks all 2^K subsets of P depth first, carrying the running
// cost, size and product of 1 − doi, and reports whether any satisfies
// prob's constraints and the highest doi of one that does. The empty set
// costs BaseCost, as Instance.SetCost has it.
func enumerate(in *Instance, prob Problem) (feasible bool, best float64) {
	var walk func(i, members int, cost, size, keep float64)
	walk = func(i, members int, cost, size, keep float64) {
		if i == in.K {
			if members == 0 {
				cost = in.BaseCost
			}
			if d := 1 - keep; prob.Feasible(d, cost, size) && (!feasible || d > best) {
				feasible, best = true, d
			}
			return
		}
		walk(i+1, members, cost, size, keep)
		walk(i+1, members+1, cost+in.Cost[i], size*in.Shrink[i], keep*(1-in.Doi[i]))
	}
	walk(0, 0, 0, in.BaseSize, 1)
	return feasible, best
}
