package core

import "cqp/internal/prefs"

// suffixBest precomputes, for every floor position f, the dois of the
// preferences at positions ≥ f sorted in decreasing order. bestBelow uses
// it for optimistic doi bounds. O(K²) space — K is a few dozen.
func (s *space) suffixBest(in *Instance) [][]float64 {
	out := make([][]float64, s.K+1)
	out[s.K] = nil
	for f := s.K - 1; f >= 0; f-- {
		d := in.Doi[s.vec[f]]
		prev := out[f+1]
		merged := make([]float64, 0, len(prev)+1)
		placed := false
		for _, x := range prev {
			if !placed && d >= x {
				merged = append(merged, d)
				placed = true
			}
			merged = append(merged, x)
		}
		if !placed {
			merged = append(merged, d)
		}
		out[f] = merged
	}
	return out
}

// bestBelow finds the maximum-doi state lying on or below the boundary r
// (same group size, componentwise position ≥ r) whose cost and size satisfy
// accept. It enumerates canonical assignments y_0 < y_1 < … < y_{g−1} with
// y_i ≥ r[i], pruning with an optimistic doi bound, and returns the best
// accepted node (nil if none). Slots are filled in ascending position —
// costOf's and sizeOf's own fold order — so the cost and size carried down
// the recursion are bit for bit what those would compute at the leaf. r is
// a boundary, hence not empty. Used by the windowed problem adapters
// (SBoundariesP1, CBoundariesP3), where the second search phase must respect
// constraints beyond the space's own upper bound.
func bestBelow(in *Instance, sp *space, r node, suffixBest [][]float64,
	accept func(cost, size float64) bool, incumbent float64, st *Stats) (node, float64) {

	// floors[i] is r's i-th position, the least slot i may take.
	floors := make([]int, 0, r.size())
	for pos := r.next(0); pos >= 0; pos = r.next(pos + 1) {
		floors = append(floors, pos)
	}
	g := len(floors)
	var best node
	bestDoi := incumbent

	cur := sp.nodeOf()
	acc := prefs.NewConjAccum()

	var rec func(slot, floor int, cost, size float64)
	rec = func(slot, floor int, cost, size float64) {
		if in.overBudget(st) {
			return
		}
		if slot == g {
			st.StatesVisited++
			if acc.Doi() > bestDoi && accept(cost, size) {
				bestDoi = acc.Doi()
				best = append(best[:0], cur...)
			}
			return
		}
		lo := max(floors[slot], floor)
		// Optimistic bound: the best g−slot dois available at ≥ lo.
		need := g - slot
		cands := suffixBest[lo]
		if len(cands) < need {
			return
		}
		prod := 1 - acc.Doi()
		for i := 0; i < need; i++ {
			prod *= 1 - cands[i]
		}
		if 1-prod <= bestDoi+1e-15 {
			return
		}
		for y := lo; y <= sp.K-need; y++ {
			p := sp.vec[y]
			cur.insert(y)
			acc.Add(in.Doi[p])
			rec(slot+1, y+1, cost+in.Cost[p], size*in.Shrink[p])
			acc.Remove(in.Doi[p])
			cur.remove(y)
		}
	}
	rec(0, 0, 0, in.BaseSize)
	return best, bestDoi
}
