package core

import (
	"math"
	"math/rand"
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
// on all six problems over random instances.
func TestBranchBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(9)
		in := randInstance(t, rng, k)
		kind := 1 + rng.Intn(6)
		prob := randProblem(rng, in, kind)
		if prob.Validate() != nil {
			continue
		}
		want := bruteForce(in, prob)
		got := BranchBound(in, prob)
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d P%d (%s): feasible %v, want %v",
				trial, kind, prob, got.Feasible, want.Feasible)
		}
		if !want.Feasible {
			continue
		}
		switch prob.Objective {
		case ObjMaxDoi:
			if math.Abs(got.Doi-want.Doi) > 1e-9 {
				t.Fatalf("trial %d P%d: doi %v, want %v (sets %v vs %v)",
					trial, kind, got.Doi, want.Doi, got.Set, want.Set)
			}
		case ObjMinCost:
			if math.Abs(got.Cost-want.Cost) > 1e-6 {
				t.Fatalf("trial %d P%d: cost %v, want %v (sets %v vs %v)",
					trial, kind, got.Cost, want.Cost, got.Set, want.Set)
			}
		}
		if !prob.Feasible(got.Doi, got.Cost, got.Size) {
			t.Fatalf("trial %d P%d: returned infeasible solution", trial, kind)
		}
	}
}

// TestWindowedAdaptersMatchBruteForce validates the Section 6 state-space
// adaptations for Problems 1 and 3.
func TestWindowedAdaptersMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 150; trial++ {
		k := 2 + rng.Intn(9)
		in := randInstance(t, rng, k)

		p1 := randProblem(rng, in, 1)
		if p1.Validate() == nil {
			want := bruteForce(in, p1)
			got := SBoundariesP1(in, p1.SizeMin, p1.SizeMax)
			if got.Feasible != want.Feasible {
				t.Fatalf("trial %d P1 (%s): feasible %v want %v", trial, p1, got.Feasible, want.Feasible)
			}
			if want.Feasible && math.Abs(got.Doi-want.Doi) > 1e-9 {
				t.Fatalf("trial %d P1: doi %v want %v (sets %v vs %v)",
					trial, got.Doi, want.Doi, got.Set, want.Set)
			}
		}

		p3 := randProblem(rng, in, 3)
		if p3.Validate() == nil {
			want := bruteForce(in, p3)
			got := CBoundariesP3(in, p3.CostMax, p3.SizeMin, p3.SizeMax)
			if got.Feasible != want.Feasible {
				t.Fatalf("trial %d P3 (%s): feasible %v want %v", trial, p3, got.Feasible, want.Feasible)
			}
			if want.Feasible && math.Abs(got.Doi-want.Doi) > 1e-9 {
				t.Fatalf("trial %d P3: doi %v want %v (sets %v vs %v)",
					trial, got.Doi, want.Doi, got.Set, want.Set)
			}
		}
	}
}

// TestMinCostGreedy: feasible when the exact solver is, never cheaper than
// the optimum.
func TestMinCostGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	degraded := 0
	for trial := 0; trial < 150; trial++ {
		k := 2 + rng.Intn(9)
		in := randInstance(t, rng, k)
		kind := 4 + rng.Intn(3)
		prob := randProblem(rng, in, kind)
		if prob.Validate() != nil {
			continue
		}
		want := bruteForce(in, prob)
		got := MinCostGreedy(in, prob)
		if got.Feasible && !prob.Feasible(got.Doi, got.Cost, got.Size) {
			t.Fatalf("trial %d: greedy returned invalid solution", trial)
		}
		if got.Feasible && want.Feasible && got.Cost < want.Cost-1e-6 {
			t.Fatalf("trial %d: greedy cost %v beats optimum %v", trial, got.Cost, want.Cost)
		}
		if want.Feasible && !got.Feasible {
			degraded++ // greedy may miss windowed feasibility; count it
		}
	}
	t.Logf("greedy missed feasibility in %d trials (heuristic, expected small)", degraded)
}

// TestSolveDispatch exercises the Table 1 router.
func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	in := randInstance(t, rng, 8)
	cmax := in.SupremeCost() * 0.5

	if _, err := Solve(in, Problem{Objective: ObjMaxDoi}, ""); err == nil {
		t.Error("invalid problem must be rejected")
	}
	if _, err := Solve(in, Problem2(cmax), "NOPE"); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
	s2, err := Solve(in, Problem2(cmax), "")
	if err != nil || s2.Stats.Algorithm != "C-MAXBOUNDS" {
		t.Errorf("default P2 solver: %v %v", s2.Stats.Algorithm, err)
	}
	s2b, err := Solve(in, Problem2(cmax), "D_MaxDoi")
	if err != nil || s2b.Stats.Algorithm != "D-MAXDOI" {
		t.Errorf("named P2 solver: %v %v", s2b.Stats.Algorithm, err)
	}

	minSize := in.SetSize(allIndices(in.K))
	smin := (minSize + in.BaseSize) / 4
	smax := in.BaseSize
	if s, err := Solve(in, Problem1(smin, smax), ""); err != nil || s.Stats.Algorithm != "S-BOUNDARIES-P1" {
		t.Errorf("P1 route: %v %v", s.Stats.Algorithm, err)
	}
	if s, err := Solve(in, Problem3(cmax, smin, smax), ""); err != nil || s.Stats.Algorithm != "C-BOUNDARIES-P3" {
		t.Errorf("P3 route: %v %v", s.Stats.Algorithm, err)
	}
	if s, err := Solve(in, Problem4(0.5), ""); err != nil || s.Stats.Algorithm != "BRANCH-BOUND" {
		t.Errorf("P4 route: %v %v", s.Stats.Algorithm, err)
	}
	if s, err := Solve(in, Problem6(smin, smax), ""); err != nil || s.Stats.Algorithm != "BRANCH-BOUND" {
		t.Errorf("P6 route: %v %v", s.Stats.Algorithm, err)
	}
}

// TestBestBelowMatchesBruteForce validates the windowed second phase in
// isolation: the best-doi state below a boundary under an acceptance
// predicate.
func TestBestBelowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 150; trial++ {
		k := 3 + rng.Intn(8)
		in := randInstance(t, rng, k)
		sp := in.costSpace()
		// Random boundary of random size.
		g := 1 + rng.Intn(k)
		r := make([]int, 0, g)
		pos := rng.Intn(k - g + 1)
		for len(r) < g {
			r = append(r, pos)
			pos += 1 + rng.Intn(2)
			if pos >= k {
				pos = k - 1
			}
		}
		// Deduplicate (the growth above can repeat the last position).
		r = dedupPositions(r, k)
		if r == nil {
			continue
		}
		sizeCut := in.BaseSize * (0.05 + 0.5*rng.Float64())
		accept := func(_, size float64) bool { return size >= sizeCut }

		suffixBest := sp.suffixBest(in)
		var st Stats
		got, gotDoi := bestBelow(in, sp, sp.nodeOf(r...), suffixBest, accept, -1, &st)

		// Oracle: enumerate all same-size states componentwise ≥ r.
		var bestDoi float64 = -1
		cur := sp.nodeOf()
		var iter func(slot, floor int)
		iter = func(slot, floor int) {
			if slot == len(r) {
				if accept(sp.costOf(in, cur), sp.sizeOf(in, cur)) {
					if d := sp.doiOf(in, cur); d > bestDoi {
						bestDoi = d
					}
				}
				return
			}
			lo := r[slot]
			if floor > lo {
				lo = floor
			}
			for y := lo; y < k; y++ {
				cur.insert(y)
				iter(slot+1, y+1)
				cur.remove(y)
			}
		}
		iter(0, 0)

		if bestDoi < 0 {
			if got != nil {
				t.Fatalf("trial %d: oracle found nothing but bestBelow returned %v", trial, got)
			}
			continue
		}
		if got == nil || math.Abs(gotDoi-bestDoi) > 1e-9 {
			t.Fatalf("trial %d: bestBelow doi %v, oracle %v (boundary %v)", trial, gotDoi, bestDoi, r)
		}
	}
}

// dedupPositions returns strictly increasing positions or nil if impossible.
func dedupPositions(r []int, k int) []int {
	out := make([]int, 0, len(r))
	prev := -1
	for _, p := range r {
		if p <= prev {
			p = prev + 1
		}
		if p >= k {
			return nil
		}
		out = append(out, p)
		prev = p
	}
	return out
}

// TestWindowedFallback: a budget-starved windowed search must escalate to
// branch-and-bound instead of reporting unproven infeasibility.
func TestWindowedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 20; trial++ {
		in := randInstance(t, rng, 16)
		in.StateBudget = 200 // starve the boundary search
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
			t.Fatalf("trial %d: fallback failed to find the feasible answer", trial)
		}
		if want.Feasible && math.Abs(got.Doi-want.Doi) > 1e-9 {
			// The fallback runs under the budget too; allow truncation to
			// cost optimality but never feasibility.
			if !got.Stats.Truncated {
				t.Fatalf("trial %d: untruncated fallback doi %v, want %v", trial, got.Doi, want.Doi)
			}
		}
	}
}
