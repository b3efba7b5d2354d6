package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// branchBoundRef is BranchBound as it was before its knapsack bound, kept
// verbatim as the reference TestBranchBoundMatchesReference holds the
// solver to: the same depth-first order and the same cuts but the one on
// cmax, so every answer it returns untruncated the solver must return too.
func branchBoundRef(in *Instance, prob Problem) Solution {
	start := time.Now()
	st := Stats{Algorithm: "BRANCH-BOUND"}

	suffix := suffixConj(in) // suffix[k] = doi of preferences k..K−1
	// minFutureShrink[k] = Π Shrink[k..K−1]: the smallest factor the
	// remaining preferences can apply (they all shrink).
	minFutureShrink := make([]float64, in.K+1)
	minFutureShrink[in.K] = 1
	for k := in.K - 1; k >= 0; k-- {
		minFutureShrink[k] = minFutureShrink[k+1] * in.Shrink[k]
	}

	bestFound := false
	var bestSet []int
	var bestDoi, bestCost float64

	consider := func(set []int, doi, cost, size float64) {
		st.StatesVisited++
		if !prob.Feasible(doi, cost, size) {
			return
		}
		if !bestFound || prob.better(doi, cost, bestDoi, bestCost) {
			bestFound = true
			bestDoi, bestCost = doi, cost
			bestSet = append(bestSet[:0], set...)
		}
	}

	// The empty personalization (the original query) is always a candidate.
	consider(nil, 0, in.BaseCost, in.BaseSize)

	cur := make([]int, 0, in.K)
	// rest is Π(1 − dᵢ) over cur, multiplied in ascending index order — the
	// fold SetDoi makes, so every cut is decided on the doi solutionFor will
	// report, and backing out of a branch has nothing to undo.
	var rec func(k int, rest, cost, size float64)
	rec = func(k int, rest, cost, size float64) {
		if k == in.K || in.overBudget(&st) {
			return
		}
		// Bound: best doi any completion can reach.
		maxDoi := 1 - rest*(1-suffix[k])
		if prob.DoiMin > 0 && maxDoi < prob.DoiMin-1e-12 {
			return
		}
		if prob.Objective == ObjMaxDoi && bestFound && maxDoi <= bestDoi {
			return
		}
		// Bound: size can only shrink; if even taking everything stays
		// above SizeMax, no completion is feasible.
		if prob.SizeMax > 0 && size*minFutureShrink[k] > prob.SizeMax+1e-9 {
			return
		}
		// Branch 1: include preference k.
		nc := cost + in.Cost[k]
		ns := size * in.Shrink[k]
		costOK := prob.CostMax == 0 || nc <= prob.CostMax+1e-9
		sizeOK := prob.SizeMin == 0 || ns >= prob.SizeMin-1e-9
		minCostOK := prob.Objective != ObjMinCost || !bestFound || nc < bestCost
		if costOK && sizeOK && minCostOK {
			cur = append(cur, k)
			nr := rest * (1 - in.Doi[k])
			consider(cur, 1-nr, nc, ns)
			rec(k+1, nr, nc, ns)
			cur = cur[:len(cur)-1]
		}
		// Branch 2: exclude preference k.
		rec(k+1, rest, cost, size)
	}
	rec(0, 1, 0, in.BaseSize)

	var sol Solution
	if bestFound {
		sol = in.solutionFor(bestSet, true)
	} else {
		sol = Solution{Feasible: false}
	}
	st.Duration = time.Since(start)
	sol.Stats = st
	return sol
}

// edgeFamily is a set of features an instance drawn by edgeInstance has,
// each one an edge of a bound on doi under cmax.
type edgeFamily uint8

const (
	// famTied quantizes dois, costs and shrinks to a few values, so that
	// many subsets share a doi or a cost.
	famTied edgeFamily = 1 << iota
	// famZeroCost makes about a third of the preferences free.
	famZeroCost
	// famDoiOne gives the first one or two preferences doi 1 — a weight of
	// +Inf in the log domain — and a shrink of 0.001 or 1, so that a size
	// window can rule out the first and leave the second to decide.
	famDoiOne
	// famEqualRatio prices every preference at a cost proportional to
	// −log(1 − doi), so every weight/cost ratio is the same.
	famEqualRatio
	// famSmallDoi draws dois from [0.01, 0.2], where Formula 10 does not
	// saturate and the incumbent cut alone prunes little.
	famSmallDoi
	// famHighDoi draws dois from [0.99, 0.9999] (unless famSmallDoi is
	// set), where half a dozen preferences fold to a doi of exactly 1 and
	// ties on doi are broken on cost.
	famHighDoi
	famAll = famTied | famZeroCost | famDoiOne | famEqualRatio | famSmallDoi | famHighDoi
)

func (f edgeFamily) String() string {
	if f == 0 {
		return "continuous"
	}
	var s string
	for i, name := range []string{"tied", "zero-cost", "doi-one", "equal-ratio", "small-doi", "high-doi"} {
		if f&(1<<i) != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	return s
}

// edgeInstance draws a K-preference instance of the family.
func edgeInstance(t testing.TB, rng *rand.Rand, k int, fam edgeFamily) *Instance {
	t.Helper()
	dois := make([]float64, k)
	costs := make([]float64, k)
	shrinks := make([]float64, k)
	for i := 0; i < k; i++ {
		dois[i] = rng.Float64()*0.98 + 0.01
		costs[i] = 1 + rng.Float64()*99
		shrinks[i] = 0.05 + rng.Float64()*0.95
		switch {
		case fam&famSmallDoi != 0:
			dois[i] = 0.01 + (dois[i]-0.01)/0.98*0.19
		case fam&famHighDoi != 0:
			dois[i] = 0.99 + (dois[i]-0.01)/0.98*0.0099
		}
		if fam&famTied != 0 {
			dois[i] = math.Round(dois[i]*10)/10*0.9 + 0.05
			costs[i] = 10 * math.Ceil(costs[i]/10)
			shrinks[i] = math.Ceil(shrinks[i]*5) / 5
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dois)))
	if fam&famDoiOne != 0 {
		for i := 0; i < 1+rng.Intn(2) && i < k; i++ {
			dois[i] = 1
			shrinks[i] = []float64{0.001, 1}[rng.Intn(2)]
		}
	}
	if fam&famEqualRatio != 0 {
		ratio := 0.005 + 0.05*rng.Float64()
		for i, d := range dois {
			if d < 1 {
				costs[i] = -math.Log1p(-d) / ratio
			}
		}
	}
	if fam&famZeroCost != 0 {
		for i := range costs {
			if rng.Intn(3) == 0 {
				costs[i] = 0
			}
		}
	}
	in, err := NewInstance(dois, costs, shrinks, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// edgeProblem draws a problem of the kind as randProblem does and, for the
// two with a cost bound, half the time puts cmax exactly on the cost of a
// random non-empty subset, where the include test's tolerance decides.
func edgeProblem(rng *rand.Rand, in *Instance, kind int) Problem {
	prob := randProblem(rng, in, kind)
	if prob.CostMax > 0 && rng.Intn(2) == 0 {
		var set []int
		for i := 0; i < in.K; i++ {
			if rng.Intn(2) == 0 {
				set = append(set, i)
			}
		}
		if c := in.SetCost(set); len(set) > 0 && c > 0 {
			prob.CostMax = c
		}
	}
	return prob
}

// TestBranchBoundMatchesReference is the differential oracle for
// BranchBound's cuts: over seeded instances of every edge family and all
// six problems, a run the reference finishes must come out identical —
// set, doi, cost, size and feasibility — untruncated and with no more
// states; a run the reference truncates (a quarter of them, under budgets
// of 1 to 200 states) must come out feasible whenever the reference's is,
// and no worse under Problem.better.
func TestBranchBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const runs = 20000
	finished, fewer, truncated := 0, 0, 0
	for run := 0; run < runs; run++ {
		k := 2 + rng.Intn(18)
		fam := edgeFamily(rng.Intn(int(famAll) + 1))
		in := edgeInstance(t, rng, k, fam)
		if rng.Intn(4) == 0 {
			in.StateBudget = 1 + rng.Intn(200)
		}
		kind := 1 + rng.Intn(6)
		prob := edgeProblem(rng, in, kind)
		if prob.Validate() != nil {
			continue
		}
		label := fmt.Sprintf("run %d: K=%d %v budget %d P%d (%s)", run, k, fam, in.StateBudget, kind, prob)
		want, got := branchBoundRef(in, prob), BranchBound(in, prob)
		if want.Stats.Truncated {
			truncated++
			if !want.Feasible {
				continue
			}
			if !got.Feasible || !prob.Feasible(got.Doi, got.Cost, got.Size) ||
				prob.better(want.Doi, want.Cost, got.Doi, got.Cost) {
				t.Fatalf("%s: truncated reference %v (doi %v cost %v), got %v (doi %v cost %v feasible %v)",
					label, want.Set, want.Doi, want.Cost, got.Set, got.Doi, got.Cost, got.Feasible)
			}
			continue
		}
		finished++
		if !sameAnswer(got, want) || got.Stats.Truncated || got.Stats.StatesVisited > want.Stats.StatesVisited {
			t.Fatalf("%s:\n got  %v %v %v %v %v truncated %v, %d states\n want %v %v %v %v %v, %d states",
				label, got.Set, got.Doi, got.Cost, got.Size, got.Feasible, got.Stats.Truncated, got.Stats.StatesVisited,
				want.Set, want.Doi, want.Cost, want.Size, want.Feasible, want.Stats.StatesVisited)
		}
		if got.Stats.StatesVisited < want.Stats.StatesVisited {
			fewer++
		}
	}
	t.Logf("%d runs: %d finished by the reference (%d with fewer states), %d truncated", runs, finished, fewer, truncated)
}

// sameAnswer reports whether two solutions are identical bit for bit.
func sameAnswer(a, b Solution) bool {
	if len(a.Set) != len(b.Set) || a.Feasible != b.Feasible ||
		math.Float64bits(a.Doi) != math.Float64bits(b.Doi) ||
		math.Float64bits(a.Cost) != math.Float64bits(b.Cost) ||
		math.Float64bits(a.Size) != math.Float64bits(b.Size) {
		return false
	}
	for i := range a.Set {
		if a.Set[i] != b.Set[i] {
			return false
		}
	}
	return true
}
