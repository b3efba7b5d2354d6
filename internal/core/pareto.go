package core

import (
	"math"
	"slices"
	"time"
)

// This file implements the paper's stated future work (Section 8):
// "studying query personalization as a multi-objective constrained
// optimization problem, where more than one query parameter may be
// optimized simultaneously." ParetoFront enumerates the personalized
// queries no other beats on both doi and cost (size is windowed, not
// optimized) — the menu a context policy can pick from instead of
// committing to one of Table 1's single-objective problems.

// ParetoPoint is one non-dominated personalized query.
type ParetoPoint struct {
	Set  []int
	Doi  float64
	Cost float64
	Size float64
}

// ParetoOptions constrains and sizes the front enumeration.
type ParetoOptions struct {
	// CostMax, SizeMin, SizeMax bound the front's candidates (0 =
	// unbounded).
	CostMax float64
	SizeMin float64
	SizeMax float64
	// MaxPoints caps the returned front (0 = no cap); points are kept in
	// increasing cost order, thinned evenly when over the cap. A cap of 1
	// keeps the top-doi point, which is Problem 2's answer.
	MaxPoints int
}

// ParetoFront enumerates the doi/cost Pareto frontier as a sequence of
// BranchBound solves, the lexicographic ε-constraint method. Each round
// maximizes doi under the current cost cap and the size window (Problem 2
// or 3), then minimizes cost at that doi (Problem 4 or 5): that answer is
// the front's costliest point under the cap, and the cap falls below it
// until nothing fits. The solves share Instance.StateBudget; one that
// truncates, on the budget or an injected fault, ends the front with its
// Stats.Truncated and Stats.Fault and adds no point.
func ParetoFront(in *Instance, opt ParetoOptions) ([]ParetoPoint, Stats) {
	start := time.Now()
	st := Stats{Algorithm: "PARETO"}

	budgeted := *in
	// solve runs prob on what is left of the budget; ok reports a feasible
	// answer from a finished solve.
	solve := func(prob Problem) (sol Solution, ok bool) {
		if in.StateBudget > 0 {
			if st.StatesVisited >= in.StateBudget {
				st.Truncated = true
				return sol, false
			}
			budgeted.StateBudget = in.StateBudget - st.StatesVisited
		}
		sol = BranchBound(&budgeted, prob)
		st.StatesVisited += sol.Stats.StatesVisited
		st.PeakMemBytes = max(st.PeakMemBytes, sol.Stats.PeakMemBytes)
		if sol.Stats.Truncated {
			st.Truncated, st.Fault = true, sol.Stats.Fault
			return sol, false
		}
		return sol, sol.Feasible
	}

	var front []ParetoPoint // costliest first
	limit := opt.CostMax
	if limit == 0 {
		limit = math.Inf(1) // BranchBound then skips its knapsack bound
	}
	for limit > 0 {
		top, ok := solve(Problem{Objective: ObjMaxDoi, CostMax: limit, SizeMin: opt.SizeMin, SizeMax: opt.SizeMax})
		if !ok {
			break
		}
		p, ok := solve(Problem{Objective: ObjMinCost, CostMax: limit, DoiMin: top.Doi, SizeMin: opt.SizeMin, SizeMax: opt.SizeMax})
		if !ok {
			break
		}
		front = append(front, ParetoPoint{Set: p.Set, Doi: p.Doi, Cost: p.Cost, Size: p.Size})
		// Feasible admits the cap + 1e-9, so the cap falls by more, or the
		// point comes back; the relative term outgrows costs' rounding.
		limit = p.Cost - 2e-9 - p.Cost*1e-15
	}
	slices.Reverse(front)

	if opt.MaxPoints == 1 && len(front) > 1 {
		front = front[len(front)-1:]
	}
	if opt.MaxPoints > 1 && len(front) > opt.MaxPoints {
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
