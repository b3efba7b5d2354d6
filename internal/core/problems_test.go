package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// bruteForce solves any Problem by complete enumeration — the oracle for
// the family-wide solvers.
func bruteForce(in *Instance, prob Problem) Solution {
	bestFound := false
	var bestSet []int
	var bestDoi, bestCost float64
	try := func(set []int) {
		doi, cost, size := in.SetDoi(set), in.SetCost(set), in.SetSize(set)
		if !prob.Feasible(doi, cost, size) {
			return
		}
		if !bestFound || prob.better(doi, cost, bestDoi, bestCost) {
			bestFound = true
			bestDoi, bestCost = doi, cost
			bestSet = append([]int(nil), set...)
		}
	}
	try(nil)
	for mask := 1; mask < 1<<in.K; mask++ {
		var set []int
		for i := 0; i < in.K; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		try(set)
	}
	if !bestFound {
		return Solution{Feasible: false}
	}
	return in.solutionFor(bestSet, true)
}

// randProblem generates a random problem of each family member with bounds
// scaled to the instance so that feasible and infeasible cases both occur.
func randProblem(rng *rand.Rand, in *Instance, kind int) Problem {
	supreme := in.SupremeCost()
	cmax := supreme * (0.1 + 0.8*rng.Float64())
	minSize := in.SetSize(allIndices(in.K))
	smin := minSize + (in.BaseSize-minSize)*rng.Float64()*0.5
	smax := smin + (in.BaseSize-smin)*rng.Float64()
	dmin := 0.2 + 0.75*rng.Float64()
	switch kind {
	case 1:
		return Problem1(smin, smax)
	case 2:
		return Problem2(cmax)
	case 3:
		return Problem3(cmax, smin, smax)
	case 4:
		return Problem4(dmin)
	case 5:
		return Problem5(dmin, smin, smax)
	default:
		return Problem6(smin, smax)
	}
}

func allIndices(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// oracleCase is one adversarial input of the oracle tests with bruteForce's
// verdict on it.
type oracleCase struct {
	name string
	in   *Instance
	prob Problem
	want Solution
}

var (
	adversarialOnce sync.Once
	adversarial     []oracleCase
)

// adversarialCases returns the families randInstance's continuous draws do
// not reach, each at K = 6, 10 and 14 and under all six problems over a
// spread of bounds: all dois equal, all costs equal, dois and costs (and
// shrinks) tied on a few values, one dominant preference as expensive as
// the rest together, shrink = 1 throughout, BaseCost above every cmax, a
// size window no subset lands in, and a dmin above the all-K doi. The
// enumeration runs once per test binary.
func adversarialCases(t testing.TB) []oracleCase {
	t.Helper()
	adversarialOnce.Do(func() {
		rng := rand.New(rand.NewSource(26))
		for _, k := range []int{6, 10, 14} {
			draw := func(lo, hi float64) []float64 {
				v := make([]float64, k)
				for i := range v {
					v[i] = lo + (hi-lo)*rng.Float64()
				}
				return v
			}
			oneOf := func(vals ...float64) []float64 {
				v := make([]float64, k)
				for i := range v {
					v[i] = vals[rng.Intn(len(vals))]
				}
				return v
			}
			dominantDois, dominantCosts := draw(0.01, 0.1), draw(1, 10)
			dominantDois[0], dominantCosts[0] = 0.999, 0
			for _, c := range dominantCosts[1:] {
				dominantCosts[0] += c
			}
			for _, f := range []struct {
				name                 string
				dois, costs, shrinks []float64
				baseCost             float64
			}{
				{"equal-dois", oneOf(0.5), draw(1, 100), draw(0.05, 1), 1},
				{"equal-costs", draw(0.01, 0.99), oneOf(10), draw(0.05, 1), 1},
				{"tied", oneOf(0.2, 0.5, 0.8), oneOf(10, 20), oneOf(0.5, 1), 1},
				{"dominant", dominantDois, dominantCosts, draw(0.05, 1), 1},
				{"shrink-one", draw(0.01, 0.99), draw(1, 100), oneOf(1), 1},
				{"base-over-cmax", draw(0.01, 0.99), draw(1, 100), draw(0.05, 1), 1e4},
				{"empty-window", draw(0.01, 0.99), draw(1, 100), oneOf(0.5), 1},
			} {
				sort.Sort(sort.Reverse(sort.Float64Slice(f.dois)))
				in, err := NewInstance(f.dois, f.costs, f.shrinks, f.baseCost, 1000)
				if err != nil {
					t.Fatal(err)
				}
				for i, prob := range spreadProblems(in) {
					if prob.Validate() != nil {
						continue
					}
					adversarial = append(adversarial, oracleCase{
						name: fmt.Sprintf("%s/k%d/%d (%s)", f.name, k, i, prob),
						in:   in, prob: prob, want: bruteForce(in, prob),
					})
				}
			}
		}
	})
	return adversarial
}

// spreadProblems instantiates all six problems on the instance: cmax from
// half the cheapest preference to past the Supreme cost, windows from the
// whole size range down to a sliver, the window [300, 400] that halving
// shrinks step over from a base of 1000, dmin up to the all-K doi and above
// it. The cost and size bounds sit off the values a subset attains: on one,
// a search's own fold order decides.
func spreadProblems(in *Instance) []Problem {
	all := allIndices(in.K)
	sup, top, minSize := in.SupremeCost(), in.SetDoi(all), in.SetSize(all)
	type window struct{ lo, hi float64 }
	windows := []window{{300, 400}}
	for _, ab := range [][2]float64{{0, 1}, {0.25, 0.5}, {0.5, 0.1}} {
		lo := 0.999*minSize + ab[0]*(in.BaseSize-minSize)
		windows = append(windows, window{lo, lo + ab[1]*(in.BaseSize-lo)})
	}
	var out []Problem
	for _, cmax := range []float64{in.Cost[in.CostOrder()[in.K-1]] / 2, 0.15 * sup, 0.5 * sup, 1.001 * sup} {
		out = append(out, Problem2(cmax))
	}
	for _, dmin := range []float64{0.5 * top, 0.9 * top, top, (1 + top) / 2} {
		out = append(out, Problem4(dmin))
	}
	for _, w := range windows {
		out = append(out, Problem1(w.lo, w.hi), Problem6(w.lo, w.hi),
			Problem3(0.15*sup, w.lo, w.hi), Problem3(0.5*sup, w.lo, w.hi),
			Problem5(0.5*top, w.lo, w.hi), Problem5((1+top)/2, w.lo, w.hi))
	}
	return out
}

// checkExact fails unless an exact solver's answer agrees with the oracle's
// on feasibility, equals its objective within 1e-12 (relative, for costs
// above 1) and satisfies the constraints itself.
func checkExact(t *testing.T, label, solver string, prob Problem, got, want Solution) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: %s feasible %v, want %v (sets %v vs %v)",
			label, solver, got.Feasible, want.Feasible, got.Set, want.Set)
	}
	if !want.Feasible {
		return
	}
	if !prob.Feasible(got.Doi, got.Cost, got.Size) {
		t.Fatalf("%s: %s returned the infeasible %v", label, solver, got.Set)
	}
	if prob.Objective == ObjMaxDoi && math.Abs(got.Doi-want.Doi) > 1e-12 {
		t.Fatalf("%s: %s doi %v, want %v (sets %v vs %v)", label, solver, got.Doi, want.Doi, got.Set, want.Set)
	}
	if prob.Objective == ObjMinCost && math.Abs(got.Cost-want.Cost) > 1e-12*math.Max(1, want.Cost) {
		t.Fatalf("%s: %s cost %v, want %v (sets %v vs %v)", label, solver, got.Cost, want.Cost, got.Set, want.Set)
	}
}

func TestProblemConstructorsAndValidate(t *testing.T) {
	cases := []struct {
		p  Problem
		ok bool
	}{
		{Problem1(1, 50), true},
		{Problem2(100), true},
		{Problem3(100, 1, 50), true},
		{Problem4(0.8), true},
		{Problem5(0.8, 1, 50), true},
		{Problem6(1, 50), true},
		{Problem{Objective: ObjMaxDoi}, false},              // unconstrained max
		{Problem{Objective: ObjMinCost}, false},             // unconstrained min
		{Problem1(50, 1), false},                            // empty window
		{Problem{Objective: ObjMaxDoi, CostMax: -1}, false}, // negative bound
		{Problem4(1.5), false},                              // doi > 1
	}
	for i, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%s): err = %v, want ok=%v", i, c.p, err, c.ok)
		}
	}
	if Problem2(5).String() == "" || Problem5(0.5, 1, 2).String() == "" {
		t.Error("String should render")
	}
	if ObjMaxDoi.String() == ObjMinCost.String() {
		t.Error("objective names")
	}
}

// TestBranchBoundMatchesBruteForce validates the family-wide exact solver
// on all six problems, over random instances, the adversarial families and
// the edges of a doi bound under cmax: zero-cost preferences, doi = 1,
// equal weight/cost ratios, small dois and cmax on a subset's exact cost.
func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(13)
		in := randInstance(t, rng, k)
		kind := 1 + rng.Intn(6)
		prob := randProblem(rng, in, kind)
		if prob.Validate() != nil {
			continue
		}
		checkExact(t, fmt.Sprintf("trial %d P%d (%s)", trial, kind, prob), "BranchBound",
			prob, BranchBound(in, prob), bruteForce(in, prob))
	}
	for _, c := range adversarialCases(t) {
		checkExact(t, c.name, "BranchBound", c.prob, BranchBound(c.in, c.prob), c.want)
	}
	for _, fam := range []edgeFamily{
		famZeroCost, famDoiOne, famEqualRatio, famSmallDoi,
		famEqualRatio | famSmallDoi, famTied | famZeroCost | famDoiOne,
	} {
		for _, k := range []int{6, 10, 14} {
			in := edgeInstance(t, rng, k, fam)
			for draw := 0; draw < 12; draw++ {
				kind := 1 + draw%6
				prob := edgeProblem(rng, in, kind)
				if prob.Validate() != nil {
					continue
				}
				checkExact(t, fmt.Sprintf("%v/k%d/%d P%d (%s)", fam, k, draw, kind, prob), "BranchBound",
					prob, BranchBound(in, prob), bruteForce(in, prob))
			}
		}
	}
}

// TestBranchBoundNonBinding: under a cmax nothing exceeds, the optimum is
// known without enumeration — the doi of all K preferences, to the last
// bit, since BranchBound folds its products in SetDoi's order. K = 40
// saturates Formula 10 to within a few ulps of 1, where an incumbent cut
// with slack, or a product maintained by division, stops short of it.
func TestBranchBoundNonBinding(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		in := randInstance(t, rand.New(rand.NewSource(seed)), 40)
		got := BranchBound(in, Problem2(1.001*in.SupremeCost()))
		if want := in.SetDoi(allIndices(in.K)); got.Doi != want {
			t.Errorf("seed %d: %d of %d preferences, doi short of all-K by %g",
				seed, len(got.Set), in.K, want-got.Doi)
		}
	}
}

// TestSolveDispatch exercises Solve's one rule: no name → BranchBound on
// every problem; a name must be registered whatever the problem, and picks
// the solver on Problem 2 alone.
func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	in := randInstance(t, rng, 8)
	cmax := in.SupremeCost() * 0.5
	minSize := in.SetSize(allIndices(in.K))
	smin := (minSize + in.BaseSize) / 4
	smax := in.BaseSize
	six := []Problem{
		Problem1(smin, smax), Problem2(cmax), Problem3(cmax, smin, smax),
		Problem4(0.5), Problem5(0.5, smin, smax), Problem6(smin, smax),
	}

	if _, err := Solve(in, Problem{Objective: ObjMaxDoi}, ""); err == nil {
		t.Error("invalid problem must be rejected")
	}
	for i, prob := range six {
		if _, err := Solve(in, prob, "NOPE"); err == nil || !strings.Contains(err.Error(), `unknown algorithm "NOPE"`) {
			t.Errorf("P%d: unknown algorithm: err = %v", i+1, err)
		}
		if s, err := Solve(in, prob, ""); err != nil || s.Stats.Algorithm != "BRANCH-BOUND" {
			t.Errorf("P%d default route: %v %v", i+1, s.Stats.Algorithm, err)
		}
	}
	if s, err := Solve(in, Problem2(cmax), "D_MaxDoi"); err != nil || s.Stats.Algorithm != "D-MAXDOI" {
		t.Errorf("named P2 solver: %v %v", s.Stats.Algorithm, err)
	}
	// A Problem-2 name on another problem is valid and has nothing to say.
	for _, prob := range []Problem{six[2], six[3]} {
		if s, err := Solve(in, prob, "D_HeurDoi"); err != nil || s.Stats.Algorithm != "BRANCH-BOUND" {
			t.Errorf("%s with a Problem-2 name: %v %v", prob, s.Stats.Algorithm, err)
		}
	}
}

// TestStarvedBudgetKeepsFeasibility: a state budget far below what the
// problem needs may cost Solve optimality, never a feasible answer the
// unbudgeted solver finds.
func TestStarvedBudgetKeepsFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(t, rng, 16)
		in.StateBudget = 200
		prob := Problem3(in.SupremeCost()*0.4, in.SetSize(allIndices(in.K))*2, in.BaseSize*0.9)
		if prob.Validate() != nil {
			continue
		}
		noBudget := *in
		noBudget.StateBudget = 0
		want := BranchBound(&noBudget, prob)
		got, err := Solve(in, prob, "")
		if err != nil {
			t.Fatal(err)
		}
		if want.Feasible && !got.Feasible {
			t.Fatalf("trial %d: the starved solve lost the feasible answer", trial)
		}
		if want.Feasible && math.Abs(got.Doi-want.Doi) > 1e-9 && !got.Stats.Truncated {
			t.Fatalf("trial %d: untruncated doi %v, want %v", trial, got.Doi, want.Doi)
		}
	}
}
