package core

import "time"

// BranchBound is the exact solver for the full CQP family and what Solve
// runs when no algorithm is named: a depth-first branch-and-bound over
// subsets of P (in doi order) that handles every Problem of Table 1. It
// exploits the same monotone partial orders as the state-space algorithms
// (Formulas 4, 7, 8) for pruning:
//
//   - cost only grows with additions → subtrees beyond CostMax are cut;
//   - size only shrinks with additions → subtrees already below SizeMin
//     are cut;
//   - doi only grows, bounded by conjoining all remaining preferences →
//     subtrees that cannot reach DoiMin, or cannot beat the incumbent
//     under ObjMaxDoi, are cut;
//   - under ObjMinCost a partial sum at or above the incumbent is cut.
//
// The paper introduces its algorithms because exhaustive search is O(2^K);
// they are the reproduction and run by name. The worst case here is
// exponential too: StateBudget bounds it and the incumbent is returned
// with Stats.Truncated set.
func BranchBound(in *Instance, prob Problem) Solution {
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
