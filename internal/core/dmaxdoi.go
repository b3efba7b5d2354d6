package core

import "time"

// DMaxDoi is the paper's Algorithm D-MAXDOI (Figure 9), the provably exact
// search on the doi state space (Theorem 3). FINDOPTIMAL grows each
// candidate with Horizontal transitions while the cost constraint holds,
// records the last feasible node of the chain as a possible solution, and
// then branches through the Vertical neighbors of the first infeasible
// successor. Vertical transitions are "blind" with respect to cost
// (Table 5), which is exactly why the paper measures this algorithm as the
// slowest and most memory-hungry — it must keep exploring states whose cost
// it cannot bound. Pruning is therefore visited-set only, preserving
// exactness.
func DMaxDoi(in *Instance, cmax float64) Solution {
	start := time.Now()
	st := Stats{Algorithm: "D-MAXDOI"}
	var mem memTracker
	sp := in.doiSpace()

	solutions := findOptimal(in, sp, cmax, &st, &mem)
	set, _ := dFindMaxDoi(sp, in, &solutions, &st)

	sol := in.solutionFor(set, true)
	if len(set) == 0 && in.BaseCost > cmax {
		sol.Feasible = false
	}
	st.Duration = time.Since(start)
	st.PeakMemBytes = mem.peak
	sol.Stats = st
	return sol
}

// findOptimal is the paper's FINDOPTIMAL (Figure 9, first phase) under
// "cost ≤ cmax".
func findOptimal(in *Instance, sp *space, cmax float64, st *Stats, mem *memTracker) nodeList {
	solutions := sp.newList()
	if sp.K == 0 {
		return solutions
	}
	visited := newVisitedSet(in, sp, st, mem)
	defer visited.release()
	rq := newNodeDeque(sp, st, mem)
	r := sp.nodeOf(0) // the state in hand, seeded with the top of the vector
	visited.seen(r)
	rq.pushTail(r)
	h := sp.nodeOf() // r's Horizontal successor
	vr := sp.newList()
	unseen := func(v node) bool { return !visited.seen(v) }

	for rq.len() > 0 {
		if in.overBudget(st) {
			break
		}
		rq.popHead(r)
		st.StatesVisited++
		branch := r // the node whose Vertical neighbors we branch through
		if sp.costOf(in, r) <= cmax {
			// Horizontal walk: extend while feasible.
			blocked := false
			copy(h, r)
			for sp.horizontal(h) {
				st.StatesVisited++
				if !(sp.costOf(in, h) <= cmax) {
					blocked = true
					break
				}
				copy(r, h)
			}
			solutions.push(r)
			mem.add(r.memBytes())
			if !blocked {
				// The chain ran off the edge of the space; no infeasible
				// successor to branch from.
				continue
			}
			branch = h
		}
		sp.vertical(branch, &vr, unseen)
		for i := 0; i < vr.len(); i++ {
			rq.pushHead(vr.at(i))
		}
	}
	return solutions
}

// dFindMaxDoi is the paper's D_FINDMAXDOI (Figure 9, second phase): pick
// the best-doi node among the recorded solutions, scanning in decreasing
// group size with the BestExpectedDoi early exit.
func dFindMaxDoi(sp *space, in *Instance, solutions *nodeList, st *Stats) ([]int, float64) {
	bound := in.topConj()
	maxDoi := -1.0
	best := -1
	kr := in.K
	for _, si := range solutions.bySizeDesc(sp.K) {
		r := solutions.at(si)
		if g := r.size(); g < kr {
			kr = g
			if maxDoi > bound[kr] {
				break
			}
		}
		st.StatesVisited++
		if d := sp.doiOf(in, r); d > maxDoi {
			maxDoi, best = d, si
		}
	}
	if best < 0 {
		return nil, 0
	}
	return sp.toSet(solutions.at(best)), maxDoi
}
