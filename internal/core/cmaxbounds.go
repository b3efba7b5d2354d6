package core

import "time"

// CMaxBounds is the paper's Algorithm C-MAXBOUNDS (Figure 7): a greedy
// first phase builds *maximal* boundaries — none a subset of or reachable
// from another — by seeding each round with the most expensive preference
// not yet examined and extending with the costliest additions that keep the
// state feasible (Horizontal2 transitions). The second phase is the same
// C_FINDMAXDOI as C-BOUNDARIES. The paper classifies C-MAXBOUNDS as
// heuristic (only C-BOUNDARIES and D-MAXDOI are provably exact); Figure 14
// measures its quality gap.
//
// Two documented divergences from the published pseudocode: (a) when a
// Vertical neighbor drops the seed preference we skip it and keep scanning
// rather than aborting the scan (the pseudocode's "exit for" would discard
// unrelated neighbors on the ordering's whim); (b) a feasible seed with no
// feasible extension is still recorded as a boundary (the pseudocode's
// R ≠ R0 test would lose single-preference solutions under tight bounds).
func CMaxBounds(in *Instance, cmax float64) Solution {
	start := time.Now()
	st := Stats{Algorithm: "C-MAXBOUNDS"}
	var mem memTracker
	sp := in.costSpace()

	maxBounds := sp.newList()
	visited := newVisitedSet(in, sp, &st, &mem)
	defer visited.release()
	rq := newNodeDeque(sp, &st, &mem)
	r, vr := sp.nodeOf(), sp.newList() // the state in hand and its Vertical neighbors

	// findMaxBound is the paper's FINDMAXBOUND: grow maximal boundaries that
	// contain the seed preference k. It returns the largest boundary size
	// found this round (0 if none).
	findMaxBound := func(k int) int {
		largest := 0
		clear(r)
		r.insert(k)
		if visited.seen(r) {
			return 0
		}
		rq.pushTail(r)
		// Only build boundaries containing the seed. Pruning is
		// visited-only: every Vertical neighbor of a maximal boundary lies
		// below it by construction, so dominance pruning here would cut the
		// entire branch phase and collapse the algorithm to a greedy.
		keep := func(v node) bool { return v.contains(k) && !visited.seen(v) }
		for rq.len() > 0 {
			if in.overBudget(&st) {
				break
			}
			rq.popHead(r)
			st.StatesVisited++
			if cost := sp.costOf(in, r); cost <= cmax {
				// Greedy maximal extension: repeatedly add the most
				// expensive absent position that keeps the state feasible.
				if growByCost(in, sp, r, cost, cmax, &st) || r.size() == 1 {
					maxBounds.push(r)
					mem.add(r.memBytes())
					largest = max(largest, r.size())
				}
			}
			sp.vertical(r, &vr, keep)
			for i := 0; i < vr.len(); i++ {
				rq.pushHead(vr.at(i))
			}
		}
		return largest
	}

	lastSize := 0
	for k := 0; k+lastSize < sp.K && !st.Truncated; k++ {
		lastSize = max(lastSize, findMaxBound(k))
	}
	set, _ := findMaxDoi(sp, in, &maxBounds, &st, &mem)

	sol := in.solutionFor(set, true)
	if len(set) == 0 && in.BaseCost > cmax {
		sol.Feasible = false
	}
	st.Duration = time.Since(start)
	st.PeakMemBytes = mem.peak
	sol.Stats = st
	return sol
}

// growByCost is greedyGrow on the cost space, where the space's order is the
// constraint's own: w[pos] is the cost a position adds and is non-increasing,
// and floating-point addition is monotone, so when the cheapest absent
// position does not fit under cmax none does. That step's probes are then
// charged to StatesVisited — one per absent position, what the scan would
// have counted — without being walked; a step that can grow scans as
// greedyGrow does. cur is cost(r) on entry.
func growByCost(in *Instance, sp *space, r node, cur, cmax float64, st *Stats) bool {
	grew := false
grow:
	for {
		if last := sp.lastAbsent(r); last < 0 || cur+sp.w[last] > cmax {
			st.StatesVisited += sp.K - r.size()
			return grew
		}
		for pos := sp.horizontal2From(r, 0); pos >= 0; pos = sp.horizontal2From(r, pos+1) {
			st.StatesVisited++
			if cur+sp.w[pos] <= cmax {
				r.insert(pos)
				grew = true
				cur = sp.costOf(in, r) // refolded, not cur+w: the fold order is part of the answer
				continue grow
			}
		}
		return grew
	}
}
