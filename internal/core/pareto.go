package core

import (
	"sort"
	"time"
)

// This file implements the paper's stated future work (Section 8):
// "studying query personalization as a multi-objective constrained
// optimization problem, where more than one query parameter may be
// optimized simultaneously."
//
// A personalized query dominates another when it is at least as good on
// all three parameters (doi ↑, cost ↓, size within the caller's preferred
// direction) and strictly better on one. ParetoFront enumerates the
// non-dominated personalized queries under optional range constraints —
// the menu a context policy can pick from instead of committing to one of
// Table 1's single-objective problems.

// ParetoPoint is one non-dominated personalized query.
type ParetoPoint struct {
	Set  []int
	Doi  float64
	Cost float64
	Size float64
}

// dominates reports whether a dominates b: no worse on doi and cost, and
// strictly better on at least one. Size is not part of the dominance
// relation by default — smaller is not universally better (the paper's
// size parameter is windowed, not optimized) — but callers can fold it in
// by constraining the front.
func dominates(a, b ParetoPoint) bool {
	if a.Doi < b.Doi-1e-12 || a.Cost > b.Cost+1e-9 {
		return false
	}
	return a.Doi > b.Doi+1e-12 || a.Cost < b.Cost-1e-9
}

// ParetoOptions constrains and sizes the front enumeration.
type ParetoOptions struct {
	// CostMax, SizeMin, SizeMax filter candidates before dominance
	// comparison (0 = unbounded).
	CostMax float64
	SizeMin float64
	SizeMax float64
	// MaxPoints caps the returned front (0 = no cap); points are kept in
	// increasing cost order, thinned evenly when over the cap.
	MaxPoints int
}

// ParetoFront enumerates the doi/cost Pareto frontier of personalized
// queries by branch and bound. The search walks preferences in doi order;
// a subtree is cut when even its doi-maximal completion cannot dominate
// into the current front at the subtree's minimal cost. Exact for the
// frontier under the estimation model; exponential in the worst case like
// every exact CQP solver, bounded by Instance.StateBudget.
func ParetoFront(in *Instance, opt ParetoOptions) ([]ParetoPoint, Stats) {
	start := time.Now()
	st := Stats{Algorithm: "PARETO"}

	suffix := suffixConj(in)
	var front []ParetoPoint

	feasible := func(cost, size float64) bool {
		if opt.CostMax > 0 && cost > opt.CostMax+1e-9 {
			return false
		}
		if opt.SizeMin > 0 && size < opt.SizeMin-1e-9 {
			return false
		}
		if opt.SizeMax > 0 && size > opt.SizeMax+1e-9 {
			return false
		}
		return true
	}

	// insert keeps front sorted by cost ascending and non-dominated.
	insert := func(p ParetoPoint) {
		for _, q := range front {
			if dominates(q, p) || (q.Doi == p.Doi && q.Cost == p.Cost) {
				return
			}
		}
		kept := front[:0]
		for _, q := range front {
			if !dominates(p, q) {
				kept = append(kept, q)
			}
		}
		front = append(kept, p)
		sort.Slice(front, func(i, j int) bool { return front[i].Cost < front[j].Cost })
	}

	// bestDoiAtOrBelow returns the highest doi the front achieves at cost
	// ≤ c (front is cost-sorted; doi increases along it by construction of
	// non-dominance).
	bestDoiAtOrBelow := func(c float64) float64 {
		best := -1.0
		for _, q := range front {
			if q.Cost <= c+1e-9 && q.Doi > best {
				best = q.Doi
			}
		}
		return best
	}

	cur := make([]int, 0, in.K)
	var rec func(k int, doiProd, cost, size float64)
	rec = func(k int, doiProd, cost, size float64) {
		if in.overBudget(&st) {
			return
		}
		st.StatesVisited++
		stateCost := cost
		if len(cur) == 0 {
			stateCost = in.BaseCost
		}
		if feasible(stateCost, size) {
			insert(ParetoPoint{
				Set:  append([]int(nil), cur...),
				Doi:  1 - doiProd,
				Cost: stateCost,
				Size: size,
			})
		}
		if k == in.K {
			return
		}
		// Prune: the doi-maximal completion of this subtree costs at least
		// `cost` (additions only add cost); if the front already achieves
		// that doi at or below this cost, nothing here can join the front.
		maxDoi := 1 - doiProd*(1-suffix[k])
		if bestDoiAtOrBelow(cost) >= maxDoi-1e-12 {
			return
		}
		if opt.CostMax > 0 && cost+in.Cost[k] > opt.CostMax+1e-9 {
			// Including k is infeasible, but cheaper later preferences may
			// fit: only the exclude branch survives.
			rec(k+1, doiProd, cost, size)
			return
		}
		// Include k.
		cur = append(cur, k)
		rec(k+1, doiProd*(1-in.Doi[k]), cost+in.Cost[k], size*in.Shrink[k])
		cur = cur[:len(cur)-1]
		// Exclude k.
		rec(k+1, doiProd, cost, size)
	}
	rec(0, 1, 0, in.BaseSize)

	if opt.MaxPoints > 0 && len(front) > opt.MaxPoints {
		thinned := make([]ParetoPoint, 0, opt.MaxPoints)
		step := float64(len(front)-1) / float64(opt.MaxPoints-1)
		for i := 0; i < opt.MaxPoints; i++ {
			thinned = append(thinned, front[int(float64(i)*step+0.5)])
		}
		front = thinned
	}
	st.Duration = time.Since(start)
	return front, st
}

// KneeIndex returns the index of the front's knee: the point farthest above
// the normalized chord from the cheapest point to the best — a reasonable
// single answer when the context gives no explicit bounds. Callers mark the
// knee by position, not by comparing float parameters for equality.
func KneeIndex(front []ParetoPoint) (int, bool) {
	if len(front) == 0 {
		return 0, false
	}
	if len(front) == 1 {
		return 0, true
	}
	base := front[0]
	last := front[len(front)-1]
	costSpan := last.Cost - base.Cost
	doiSpan := last.Doi - base.Doi
	if costSpan <= 0 || doiSpan <= 0 {
		return len(front) - 1, true
	}
	bestIdx, bestScore := 0, -1.0
	for i, p := range front {
		// Normalized distance above the chord from cheapest to best.
		x := (p.Cost - base.Cost) / costSpan
		y := (p.Doi - base.Doi) / doiSpan
		if score := y - x; score > bestScore {
			bestIdx, bestScore = i, score
		}
	}
	return bestIdx, true
}
