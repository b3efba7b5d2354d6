package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestWorkedExample is the hand-checked 5-preference example mirroring the
// structure of Figures 6/8: costs 180,120,60,40,30 (C = identity), cmax 185.
// Feasible sets include {p2,p3} (cost 180) and {p3,p4,p5} (cost 130), both
// with doi 0.94 — the optimum.
func TestWorkedExample(t *testing.T) {
	in, err := NewInstance(
		[]float64{0.9, 0.8, 0.7, 0.6, 0.5},
		[]float64{180, 120, 60, 40, 30},
		[]float64{0.9, 0.8, 0.7, 0.6, 0.5},
		10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const cmax = 185.0
	want := 0.94
	exh := Exhaustive(in, cmax)
	if math.Abs(exh.Doi-want) > 1e-12 {
		t.Fatalf("exhaustive doi = %v, want %v", exh.Doi, want)
	}
	for _, a := range Algorithms {
		got := a.Solve(in, cmax)
		if !got.Feasible {
			t.Errorf("%s: infeasible", a.Name)
			continue
		}
		if got.Cost > cmax+1e-9 {
			t.Errorf("%s: cost %g exceeds cmax", a.Name, got.Cost)
		}
		if a.Exact && math.Abs(got.Doi-want) > 1e-12 {
			t.Errorf("%s: doi = %v, want %v (exact algorithm)", a.Name, got.Doi, want)
		}
		if got.Doi > want+1e-12 {
			t.Errorf("%s: doi %v exceeds optimum", a.Name, got.Doi)
		}
	}
}

// TestExactAlgorithmsMatchExhaustive is the central correctness property:
// C-BOUNDARIES and D-MAXDOI (Theorems 2 and 3) and BranchBound must find
// the exhaustive optimum on random instances across the cmax range.
func TestExactAlgorithmsMatchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		k := 3 + rng.Intn(10)
		in := randInstance(t, rng, k)
		frac := 0.1 + 0.9*rng.Float64()
		cmax := in.SupremeCost() * frac
		want := Exhaustive(in, cmax)

		for _, name := range []string{"C_Boundaries", "D_MaxDoi", "BRANCH-BOUND"} {
			solver, err := SolverByName(name)
			if err != nil {
				t.Fatal(err)
			}
			got := solver(in, cmax)
			if math.Abs(got.Doi-want.Doi) > 1e-9 {
				t.Fatalf("trial %d (K=%d, cmax=%.1f): %s doi %v != exhaustive %v\nsets: %v vs %v",
					trial, k, cmax, name, got.Doi, want.Doi, got.Set, want.Set)
			}
			if got.Cost > cmax+1e-9 {
				t.Fatalf("%s returned infeasible solution: cost %g > %g", name, got.Cost, cmax)
			}
		}
	}
	// The adversarial families, against plain enumeration — EXHAUSTIVE
	// prunes on cost order and is under test here too.
	for _, c := range adversarialCases(t) {
		if c.prob != Problem2(c.prob.CostMax) {
			continue
		}
		for _, name := range []string{"EXHAUSTIVE", "C_Boundaries", "D_MaxDoi", "BRANCH-BOUND"} {
			solver, err := SolverByName(name)
			if err != nil {
				t.Fatal(err)
			}
			checkExact(t, c.name, name, c.prob, solver(c.in, c.prob.CostMax), c.want)
		}
	}
}

// TestHeuristicsFeasibleAndBounded: the heuristic algorithms must return
// feasible solutions that never beat the optimum, and their quality gap on
// these small instances should be tiny (Figure 14's observation).
func TestHeuristicsFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var worst float64
	for trial := 0; trial < 150; trial++ {
		k := 3 + rng.Intn(10)
		in := randInstance(t, rng, k)
		cmax := in.SupremeCost() * (0.1 + 0.9*rng.Float64())
		opt := Exhaustive(in, cmax)
		for _, a := range Algorithms {
			if a.Exact {
				continue
			}
			got := a.Solve(in, cmax)
			if got.Cost > cmax+1e-9 {
				t.Fatalf("%s infeasible: cost %g > cmax %g", a.Name, got.Cost, cmax)
			}
			if got.Doi > opt.Doi+1e-9 {
				t.Fatalf("%s doi %v beats exhaustive %v — impossible", a.Name, got.Doi, opt.Doi)
			}
			if gap := opt.Doi - got.Doi; gap > worst {
				worst = gap
			}
		}
	}
	// The paper reports gaps on the order of 1e-7; small random instances
	// are harsher, but heuristics should stay within a few percent.
	if worst > 0.05 {
		t.Errorf("worst heuristic gap %g is suspiciously large", worst)
	}
	// On the adversarial families a heuristic may say infeasible or fall
	// short; what it calls feasible is, and never tops the optimum.
	for _, c := range adversarialCases(t) {
		if c.prob != Problem2(c.prob.CostMax) {
			continue
		}
		for _, a := range Algorithms {
			if a.Exact {
				continue
			}
			got := a.Solve(c.in, c.prob.CostMax)
			if !got.Feasible {
				continue
			}
			if !c.want.Feasible || !c.prob.Feasible(got.Doi, got.Cost, got.Size) {
				t.Fatalf("%s: %s calls %v feasible (cost %g)", c.name, a.Name, got.Set, got.Cost)
			}
			if got.Doi > c.want.Doi+1e-12 {
				t.Fatalf("%s: %s doi %v beats the optimum %v", c.name, a.Name, got.Doi, c.want.Doi)
			}
		}
	}
}

// TestBoundariesDominateAllFeasibleStates checks FINDBOUNDARY's Theorem 1
// obligation: every feasible state lies on or below some boundary.
func TestBoundariesDominateAllFeasibleStates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		k := 3 + rng.Intn(8)
		in := randInstance(t, rng, k)
		cmax := in.SupremeCost() * (0.15 + 0.7*rng.Float64())
		sp := in.costSpace()
		var st Stats
		var mem memTracker
		bounds := findBoundary(in, sp, cmax, &st, &mem)
		// Enumerate all feasible states and check domination.
		for mask := 1; mask < 1<<k; mask++ {
			n := node{uint64(mask)} // bit i of the mask is position i
			if sp.costOf(in, n) > cmax {
				continue
			}
			ok := false
			for i := 0; i < bounds.len() && !ok; i++ {
				ok = dominatedBy(n, bounds.at(i))
			}
			if !ok {
				t.Fatalf("trial %d: feasible state %v not dominated by any of the %d boundaries",
					trial, positionsOf(n), bounds.len())
			}
		}
	}
}

// TestBoundariesAreFeasible: every emitted boundary satisfies the cost
// constraint. Note the paper itself observes (Section 5.2.1, the c2c4c5
// discussion) that FINDBOUNDARY may emit states that are not boundaries in
// the strict Proposition-2 sense — states below a boundary discovered
// later — and that this superset is exactly C-MAXBOUNDS' motivation.
// Correctness (Theorem 2) only needs feasibility plus the domination
// coverage checked by TestBoundariesDominateAllFeasibleStates.
func TestBoundariesAreFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	misclassified := 0
	for trial := 0; trial < 60; trial++ {
		k := 3 + rng.Intn(8)
		in := randInstance(t, rng, k)
		cmax := in.SupremeCost() * (0.15 + 0.7*rng.Float64())
		sp := in.costSpace()
		var st Stats
		var mem memTracker
		bounds := findBoundary(in, sp, cmax, &st, &mem)
		for i := 0; i < bounds.len(); i++ {
			b := bounds.at(i)
			if sp.costOf(in, b) > cmax {
				t.Fatalf("boundary %v infeasible", positionsOf(b))
			}
			for _, pos := range positionsOf(b) {
				prev := pos - 1
				if prev < 0 || b.contains(prev) {
					continue
				}
				above := append(node(nil), b...) // b's Vertical predecessor
				above.remove(pos)
				above.insert(prev)
				if sp.costOf(in, above) <= cmax {
					misclassified++ // the paper's known over-generation
				}
			}
		}
	}
	t.Logf("misclassified boundary instances across trials: %d (expected > 0, per the paper)", misclassified)
}

// TestEdgeCases covers degenerate instances.
func TestEdgeCases(t *testing.T) {
	// K = 0: no preferences.
	empty := &Instance{BaseCost: 5, BaseSize: 100}
	for _, a := range Algorithms {
		got := a.Solve(empty, 10)
		if !got.Feasible || len(got.Set) != 0 || got.Doi != 0 {
			t.Errorf("%s on empty instance: %+v", a.Name, got)
		}
	}
	got := Exhaustive(empty, 10)
	if !got.Feasible || got.Doi != 0 {
		t.Errorf("exhaustive on empty: %+v", got)
	}

	// cmax below every single preference: only the empty personalization.
	in, _ := NewInstance([]float64{0.9, 0.5}, []float64{50, 40}, []float64{0.5, 0.5}, 5, 100)
	for _, name := range []string{"C_Boundaries", "D_MaxDoi", "C_MaxBounds", "D_SingleMaxDoi", "D_HeurDoi"} {
		solver, _ := SolverByName(name)
		got := solver(in, 20)
		if len(got.Set) != 0 || got.Doi != 0 {
			t.Errorf("%s with tiny cmax: %+v", name, got)
		}
		if !got.Feasible {
			t.Errorf("%s: empty personalization (cost 5 ≤ 20) is feasible", name)
		}
	}
	// cmax below even the base query: infeasible.
	got2 := CBoundaries(in, 2)
	if got2.Feasible {
		t.Error("cmax below base cost must be infeasible")
	}

	// cmax at supreme cost: everything fits; optimum is the full set.
	full := Exhaustive(in, in.SupremeCost())
	if len(full.Set) != 2 {
		t.Errorf("full-budget optimum: %+v", full)
	}
	for _, a := range Algorithms {
		if g := a.Solve(in, in.SupremeCost()); math.Abs(g.Doi-full.Doi) > 1e-12 {
			t.Errorf("%s at supreme cost: doi %v, want %v", a.Name, g.Doi, full.Doi)
		}
	}

	// Must-have preference (doi = 1).
	in2, _ := NewInstance([]float64{1.0, 0.5}, []float64{10, 10}, []float64{0.5, 0.5}, 1, 100)
	for _, a := range Algorithms {
		if g := a.Solve(in2, 15); math.Abs(g.Doi-1.0) > 1e-12 {
			t.Errorf("%s with must-have: doi %v", a.Name, g.Doi)
		}
	}

	// K = 1.
	in3, _ := NewInstance([]float64{0.7}, []float64{10}, []float64{0.5}, 1, 100)
	for _, a := range Algorithms {
		if g := a.Solve(in3, 10); math.Abs(g.Doi-0.7) > 1e-12 {
			t.Errorf("%s on K=1: %+v", a.Name, g)
		}
	}
}

// TestEqualCosts stresses tie handling: many preferences with identical
// costs produce massive plateaus in the cost space.
func TestEqualCosts(t *testing.T) {
	dois := []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4}
	costs := []float64{10, 10, 10, 10, 10, 10}
	shr := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	in, _ := NewInstance(dois, costs, shr, 1, 100)
	want := Exhaustive(in, 35) // exactly 3 preferences fit
	if len(want.Set) != 3 {
		t.Fatalf("exhaustive picked %v", want.Set)
	}
	for _, name := range []string{"C_Boundaries", "D_MaxDoi"} {
		solver, _ := SolverByName(name)
		got := solver(in, 35)
		if math.Abs(got.Doi-want.Doi) > 1e-12 {
			t.Errorf("%s: doi %v, want %v", name, got.Doi, want.Doi)
		}
	}
}

// TestStatsPopulated: every algorithm reports instrumentation.
func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randInstance(t, rng, 10)
	cmax := in.SupremeCost() * 0.5
	for _, a := range Algorithms {
		got := a.Solve(in, cmax)
		if got.Stats.Algorithm == "" || got.Stats.StatesVisited == 0 {
			t.Errorf("%s: stats not populated: %+v", a.Name, got.Stats)
		}
		if got.Stats.Duration <= 0 {
			t.Errorf("%s: no duration", a.Name)
		}
	}
}

func TestSolverByNameErrors(t *testing.T) {
	if _, err := SolverByName("NOPE"); err == nil {
		t.Error("unknown name should fail")
	}
	for _, name := range []string{"EXHAUSTIVE", "BRANCH-BOUND", "C_Boundaries"} {
		if _, err := SolverByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestExhaustiveRejectsHugeK(t *testing.T) {
	dois := make([]float64, MaxExhaustiveK+1)
	costs := make([]float64, len(dois))
	shr := make([]float64, len(dois))
	for i := range dois {
		dois[i] = 0.5
		costs[i] = 1
		shr[i] = 0.5
	}
	in, _ := NewInstance(dois, costs, shr, 1, 100)
	if got := Exhaustive(in, 10); got.Feasible {
		t.Error("oversized exhaustive must refuse")
	}
}

// TestNoMemoModeStillExact: with memoization disabled (the paper's stated
// memory discipline) and no budget, C-BOUNDARIES must still find the
// optimum — it just revisits states.
func TestNoMemoModeStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		k := 3 + rng.Intn(6) // keep small: revisits grow fast
		in := randInstance(t, rng, k)
		cmax := in.SupremeCost() * (0.2 + 0.6*rng.Float64())
		want := Exhaustive(in, cmax)

		noMemo := *in
		noMemo.DisableMemo = true
		got := CBoundaries(&noMemo, cmax)
		if math.Abs(got.Doi-want.Doi) > 1e-9 {
			t.Fatalf("trial %d: no-memo doi %v, want %v", trial, got.Doi, want.Doi)
		}
		// The memoized run never visits more states than the faithful one.
		memoed := CBoundaries(in, cmax)
		if memoed.Stats.StatesVisited > got.Stats.StatesVisited {
			t.Fatalf("trial %d: memoization increased states (%d > %d)",
				trial, memoed.Stats.StatesVisited, got.Stats.StatesVisited)
		}
	}
}
