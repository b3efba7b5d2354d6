package core

import "time"

// maxDominanceScan caps how many recent boundaries the prune(.) dominance
// check inspects per candidate, keeping pruning O(1) amortized. Skipping a
// dominance hit only costs a re-visit that the visited set then stops.
const maxDominanceScan = 32

// CBoundaries is the paper's Algorithm C-BOUNDARIES (Figure 5), solving
// Problem 2 (maximize doi subject to cost ≤ cmax) on the cost state space.
//
// Phase 1 (FINDBOUNDARY) locates the boundaries: feasible states whose
// Vertical predecessors are all infeasible. It proceeds group by group —
// Horizontal neighbors of found boundaries enqueue at the tail, Vertical
// neighbors of infeasible states at the head — pruning states already
// visited or lying below an earlier boundary of the same group.
// Phase 2 (C_FINDMAXDOI) searches below the boundaries for the best doi.
func CBoundaries(in *Instance, cmax float64) Solution {
	start := time.Now()
	st := Stats{Algorithm: "C-BOUNDARIES"}
	var mem memTracker

	sp := in.costSpace()
	boundaries := findBoundary(in, sp, cmax, &st, &mem)
	set, _ := findMaxDoi(sp, in, &boundaries, &st, &mem)

	sol := in.solutionFor(set, true)
	if len(set) == 0 && in.BaseCost > cmax {
		sol.Feasible = false
	}
	st.Duration = time.Since(start)
	st.PeakMemBytes = mem.peak
	sol.Stats = st
	return sol
}

// findBoundary is the paper's FINDBOUNDARY (Figure 5): the boundaries of
// "cost ≤ cmax" on the space.
func findBoundary(in *Instance, sp *space, cmax float64, st *Stats, mem *memTracker) nodeList {
	boundaries := sp.newList()
	if sp.K == 0 {
		return boundaries
	}
	visited := newVisitedSet(in, sp, st, mem)
	defer visited.release()
	rq := newNodeDeque(sp, st, mem)
	r := sp.nodeOf(0) // the state in hand, seeded with the top of the vector
	visited.seen(r)
	rq.pushTail(r)
	byLen := make([]nodeList, sp.K+1) // boundaries grouped by size for pruning
	for g := range byLen {
		byLen[g] = sp.newList()
	}

	// unpruned is the complement of the paper's prune(.): a candidate is
	// dropped when already visited or when it lies below a boundary already
	// found in its group (it is then reachable from that boundary and cannot
	// be one).
	unpruned := func(n node) bool {
		if visited.seen(n) {
			return false
		}
		group := &byLen[n.size()]
		// Scan only the most recent dominators: full scans over large
		// boundary lists would make prune itself quadratic in the number
		// of boundaries (visited-set pruning keeps correctness).
		for i := max(0, group.len()-maxDominanceScan); i < group.len(); i++ {
			if dominatedBy(n, group.at(i)) {
				return false
			}
		}
		return true
	}

	vr := sp.newList()
	for rq.len() > 0 {
		if in.overBudget(st) {
			break
		}
		rq.popHead(r)
		st.StatesVisited++
		if sp.costOf(in, r) <= cmax {
			boundaries.push(r)
			byLen[r.size()].push(r)
			mem.add(r.memBytes())
			if sp.horizontal(r) && !visited.seen(r) {
				rq.pushTail(r)
			}
			continue
		}
		sp.vertical(r, &vr, unpruned)
		// Head insertion preserves within-group processing; push in reverse
		// so the highest-cost neighbor pops first (the paper's ordering).
		for i := vr.len() - 1; i >= 0; i-- {
			rq.pushHead(vr.at(i))
		}
	}
	return boundaries
}
