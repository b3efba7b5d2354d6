package core

import (
	"sort"

	"cqp/internal/prefs"
)

// topConj returns bound[g] = doi of the g most interesting preferences —
// the paper's BestExpectedDoi for group size g (P is doi-sorted, so the
// best any state of size ≤ g can score is Conjunction(Doi[0..g-1])).
func (in *Instance) topConj() []float64 {
	bound := make([]float64, in.K+1)
	acc := prefs.NewConjAccum()
	for g := 1; g <= in.K; g++ {
		acc.Add(in.Doi[g-1])
		bound[g] = acc.Doi()
	}
	return bound
}

// findMaxDoi implements the paper's C_FINDMAXDOI (Figure 5, second phase):
// among all states lying on or below the given boundaries, find the one
// with the maximum doi.
//
// For each boundary R it runs the paper's greedy: slots are processed from
// the most constrained (largest position) to the least, and each slot takes
// the unused preference with the best doi among vector positions ≥ the
// slot's position. The greedy is optimal because slot availability sets are
// nested suffixes — which also makes it one sweep: walk the positions from
// the edge of the space down to R's lowest member, adding each position's
// preference to the available set, and at a member take the best of the set
// (P is doi-sorted, so the best is the smallest index). Boundaries are
// visited in decreasing group size so the BestExpectedDoi bound can stop
// the scan early.
func findMaxDoi(sp *space, in *Instance, boundaries *nodeList, st *Stats, mem *memTracker) ([]int, float64) {
	bound := in.topConj()
	maxDoi := -1.0
	var best []int
	avail := sp.nodeOf() // P indices at positions swept so far and not yet taken
	set := make([]int, 0, sp.K)
	mem.add(int64(sp.K)) // scratch accounting

	kr := in.K
	// Boundaries by decreasing group size (push order usually already gives
	// this; ordering makes it independent of phase-1 discipline).
	for _, bi := range boundaries.bySizeDesc(sp.K) {
		r := boundaries.at(bi)
		if g := r.size(); g < kr {
			kr = g
			if maxDoi > bound[kr] {
				break // no smaller group can beat the incumbent
			}
		}
		// Greedy best-doi substitution below r.
		clear(avail)
		set = set[:0]
		var acc prefs.ConjAccum
		acc.Reset()
		// A boundary is never empty, so lowest is a position.
		for pos, lowest := sp.K-1, r.next(0); pos >= lowest; pos-- {
			avail.insert(sp.vec[pos])
			if r.contains(pos) {
				bestP := avail.next(0)
				avail.remove(bestP)
				set = append(set, bestP)
				acc.Add(in.Doi[bestP])
			}
		}
		st.StatesVisited++
		if acc.Doi() > maxDoi {
			maxDoi = acc.Doi()
			best = append(best[:0], set...)
		}
	}
	mem.sub(int64(sp.K))
	if best == nil {
		return nil, 0
	}
	sort.Ints(best)
	return best, maxDoi
}
