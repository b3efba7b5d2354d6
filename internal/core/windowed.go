package core

import (
	"sort"
	"time"
)

// SBoundariesP1 solves Problem 1 (maximize doi, smin ≤ size ≤ smax) with
// the Section 6 adaptation of C-BOUNDARIES: the search runs on the size
// state space (vector S), whose transition directions make "size ≥ smin"
// the upper-bound constraint the boundary machinery handles. The paper's
// dual boundary lists (UpBoundaries/LowBoundaries) become, in our
// implementation, a boundary search against the lower size bound followed
// by a below-boundary search that also enforces the upper bound — the
// "nodes between the upper and lower boundaries".
func SBoundariesP1(in *Instance, smin, smax float64) Solution {
	return windowedBoundaries(in, in.sizeSpace(), sizePrimaryName, Problem1(smin, smax))
}

// CBoundariesP3 solves Problem 3 (maximize doi, cost ≤ cmax and
// smin ≤ size ≤ smax) per Section 6: phase 1 finds cost boundaries exactly
// as in Problem 2; phase 2 keeps the best-doi state below them that also
// satisfies the size window.
func CBoundariesP3(in *Instance, cmax, smin, smax float64) Solution {
	return windowedBoundaries(in, in.costSpace(), costPrimaryName, Problem3(cmax, smin, smax))
}

const (
	costPrimaryName = "C-BOUNDARIES-P3"
	sizePrimaryName = "S-BOUNDARIES-P1"
)

// windowedBoundaries runs the two-phase boundary search with a secondary
// acceptance predicate in phase 2.
func windowedBoundaries(in *Instance, sp *space, name string, prob Problem) Solution {
	start := time.Now()
	st := Stats{Algorithm: name}
	var mem memTracker

	var pr primary
	if prob.CostMax > 0 {
		pr = costPrimary(in, sp, prob.CostMax)
	} else {
		pr = sizePrimary(in, sp, prob.SizeMin)
	}
	boundaries := findBoundary(in, sp, pr, &st, &mem)
	// Phase 2 gets its own budget window: a truncated phase 1 must not
	// starve the below-boundary search that actually produces the answer.
	ph2 := Stats{}

	// Problems 1 and 3 have no doi constraint, so the acceptance check only
	// concerns cost and size; doi 1 neutralizes Feasible's DoiMin term.
	accept := func(cost, size float64) bool { return prob.Feasible(1, cost, size) }
	suffixBest := sp.suffixBest(in)
	bound := in.topConj()
	maxSize, minSize := sizeEnvelopes(in)

	bestDoi := -1.0
	var best node
	kr := in.K
	// Boundaries in decreasing group size with the BestExpectedDoi cutoff,
	// exactly as in findMaxDoi, but each boundary is searched below with
	// the full constraint set.
	for _, bi := range boundaries.bySizeDesc(sp.K) {
		r := boundaries.at(bi)
		if in.overBudget(&ph2) {
			break
		}
		g := r.size()
		if g < kr {
			kr = g
			if bestDoi > bound[kr] {
				break
			}
		}
		// Group-level size envelope: if no state of this cardinality can
		// land in the window, skip the whole boundary — otherwise large
		// groups (size ≈ 0) burn the budget on doomed enumeration.
		if prob.SizeMin > 0 && maxSize[g] < prob.SizeMin-1e-9 {
			continue
		}
		if prob.SizeMax > 0 && minSize[g] > prob.SizeMax+1e-9 {
			continue
		}
		if b, d := bestBelow(in, sp, r, suffixBest, accept, bestDoi, &ph2); b != nil {
			best, bestDoi = b, d
		}
	}
	st.StatesVisited += ph2.StatesVisited
	st.Truncated = st.Truncated || ph2.Truncated

	var sol Solution
	switch {
	case best != nil:
		sol = in.solutionFor(sp.toSet(best), true)
	case prob.Feasible(0, in.BaseCost, in.BaseSize):
		sol = in.solutionFor(nil, true)
	default:
		sol = Solution{Feasible: false}
	}
	st.Duration = time.Since(start)
	st.PeakMemBytes = mem.peak
	sol.Stats = st
	return sol
}

// sizeEnvelopes returns, per group size g, the largest and smallest result
// size any g-preference state can have: BaseSize times the product of the
// g largest (resp. smallest) shrink factors.
func sizeEnvelopes(in *Instance) (maxSize, minSize []float64) {
	asc := append([]float64(nil), in.Shrink...)
	sort.Float64s(asc) // ascending: smallest shrink first
	maxSize = make([]float64, in.K+1)
	minSize = make([]float64, in.K+1)
	maxSize[0], minSize[0] = in.BaseSize, in.BaseSize
	for g := 1; g <= in.K; g++ {
		maxSize[g] = maxSize[g-1] * asc[in.K-g] // take largest remaining
		minSize[g] = minSize[g-1] * asc[g-1]    // take smallest remaining
	}
	return maxSize, minSize
}
