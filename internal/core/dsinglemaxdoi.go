package core

import (
	"time"

	"cqp/internal/prefs"
)

// DSingleMaxDoi is the paper's Algorithm D-SINGLEMAXDOI (Figure 10): the
// C-MAXBOUNDS idea transplanted to the doi space, collapsed to a single
// phase. Each round seeds with the most interesting preference not yet
// examined, greedily grows maximal feasible states (Horizontal2 walks that
// always add the highest-doi preference that still fits the cost bound),
// branches through Vertical neighbors that retain the seed, and keeps the
// best doi seen. BestExpectedDoi — the doi of all preferences from the
// current seed onward — bounds what later rounds can achieve and stops the
// outer loop early.
func DSingleMaxDoi(in *Instance, cmax float64) Solution {
	start := time.Now()
	st := Stats{Algorithm: "D-SINGLEMAXDOI"}
	var mem memTracker
	sp := in.doiSpace()

	maxDoi := -1.0
	var best []int
	suffix := suffixConj(in)
	visited := newVisitedSet(in, sp, &st, &mem)
	defer visited.release()
	rq := newNodeDeque(sp, &st, &mem)
	r, vr := sp.nodeOf(), sp.newList() // the state in hand and its Vertical neighbors

	for k := 0; k < sp.K && maxDoi <= suffix[k] && !st.Truncated; k++ {
		clear(r)
		r.insert(k)
		if visited.seen(r) {
			continue
		}
		rq.pushTail(r)
		keep := func(v node) bool { return v.contains(k) && !visited.seen(v) } // branches retain the seed
		for rq.len() > 0 {
			if in.overBudget(&st) {
				break
			}
			rq.popHead(r)
			st.StatesVisited++
			if sp.costOf(in, r) <= cmax {
				greedyGrow(in, sp, r, -1, cmax, &st)
				if d := sp.doiOf(in, r); d > maxDoi {
					maxDoi = d
					best = sp.toSet(r)
				}
				mem.add(r.memBytes())
			}
			sp.vertical(r, &vr, keep)
			for i := 0; i < vr.len(); i++ {
				rq.pushHead(vr.at(i))
			}
		}
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

// greedyGrow extends a feasible node maximally, in place: repeatedly add
// the absent position of highest space weight (highest doi in the D space,
// highest cost in the C space) whose addition keeps the cost within cmax,
// never adding the excluded position (−1 excludes none). It reports whether
// the node grew.
func greedyGrow(in *Instance, sp *space, r node, excluded int, cmax float64, st *Stats) bool {
	grew := false
grow:
	for {
		cur := sp.costOf(in, r)
		for pos := sp.horizontal2From(r, 0); pos >= 0; pos = sp.horizontal2From(r, pos+1) {
			if pos == excluded {
				continue
			}
			st.StatesVisited++
			if cur+in.Cost[sp.vec[pos]] <= cmax {
				r.insert(pos)
				grew = true
				continue grow
			}
		}
		return grew
	}
}

// suffixConj returns suffix[k] = doi of preferences k..K−1 together — the
// paper's BestExpectedDoi after examining seeds 0..k−1.
func suffixConj(in *Instance) []float64 {
	out := make([]float64, in.K+1)
	acc := prefs.NewConjAccum()
	for k := in.K - 1; k >= 0; k-- {
		acc.Add(in.Doi[k])
		out[k] = acc.Doi()
	}
	if in.K > 0 {
		out[in.K] = 0
	}
	return out
}
