package core

import "time"

// DHeurDoi is the paper's Algorithm D-HEURDOI (Figure 11): the most
// aggressive heuristic. Each round seeds with the next preference in doi
// order and (a) greedily grows it to a maximal feasible state; (b) instead
// of branching through a queue of Vertical alternatives, it repeatedly
// drops the last-added (cheapest-kept) suffix element of the current state
// and regrows, probing a handful of nearby maximal states. The number of
// states examined is linear-ish in K, which is why Figure 12 shows it
// almost flat in cmax.
func DHeurDoi(in *Instance, cmax float64) Solution {
	start := time.Now()
	st := Stats{Algorithm: "D-HEURDOI"}
	var mem memTracker
	sp := in.doiSpace()

	maxDoi := -1.0
	var best []int
	suffix := suffixConj(in)

	// The round's maximal state, its truncation and the regrown truncation.
	r, trunc, grown := sp.nodeOf(), sp.nodeOf(), sp.nodeOf()

	for k := 0; k < sp.K && maxDoi <= suffix[k] && !in.overBudget(&st); k++ {
		clear(r)
		r.insert(k)
		if !(sp.costOf(in, r) <= cmax) {
			continue
		}
		greedyGrow(in, sp, r, -1, cmax, &st)
		mem.add(r.memBytes())
		if d := sp.doiOf(in, r); d > maxDoi {
			maxDoi = d
			best = sp.toSet(r)
		}
		// Heuristic descent (Figure 11, step 2.5): drop the state's suffix
		// element by element and regrow each truncation, hoping a cheaper
		// tail frees budget for more interesting preferences — without
		// re-adding the element just dropped, so each truncation explores a
		// genuinely different maximal state (Figure 11's "For each R” in
		// HR, R” ≠ R'"). The growth probes burn states too, so the budget
		// is re-checked per cut — otherwise a tiny budget would finish the
		// round unflagged.
		copy(trunc, r)
		for cut := r.size() - 1; cut >= 1 && !in.overBudget(&st); cut-- {
			dropped := trunc.max()
			trunc.remove(dropped)
			copy(grown, trunc)
			greedyGrow(in, sp, grown, dropped, cmax, &st)
			if d := sp.doiOf(in, grown); d > maxDoi {
				maxDoi = d
				best = sp.toSet(grown)
			}
		}
		mem.sub(r.memBytes())
	}

	sol := in.solutionFor(best, true)
	if len(best) == 0 && in.BaseCost > cmax {
		sol.Feasible = false
	}
	st.Duration = time.Since(start)
	st.PeakMemBytes = mem.peak
	sol.Stats = st
	return sol
}
