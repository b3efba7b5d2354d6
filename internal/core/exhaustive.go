package core

import (
	"time"

	"cqp/internal/prefs"
)

// MaxExhaustiveK bounds the instance size EXHAUSTIVE accepts: the paper
// notes the O(2^K) complexity that motivates the search algorithms.
const MaxExhaustiveK = 26

// Exhaustive solves Problem 2 (maximize doi subject to cost ≤ cmax) by
// complete subset enumeration with monotone cost pruning. It is the ground
// truth the search algorithms are validated against. Instances with
// K > MaxExhaustiveK are rejected by returning an infeasible Solution with
// a zero Stats — callers must size test instances accordingly.
func Exhaustive(in *Instance, cmax float64) Solution {
	start := time.Now()
	if in.K > MaxExhaustiveK {
		return Solution{Stats: Stats{Algorithm: "EXHAUSTIVE"}}
	}
	st := Stats{Algorithm: "EXHAUSTIVE"}

	// Enumerate in cost-ascending order so that exceeding cmax prunes the
	// whole subtree (Formula 7's monotonicity).
	order := in.CostOrder()
	// C is cost-descending; reverse for ascending.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}

	best := []int(nil)
	bestDoi := -1.0
	cur := make([]int, 0, in.K)
	acc := prefs.NewConjAccum()

	var rec func(idx int, cost float64)
	rec = func(idx int, cost float64) {
		if in.overBudget(&st) {
			return
		}
		st.StatesVisited++
		if acc.Doi() > bestDoi {
			bestDoi = acc.Doi()
			best = append(best[:0], cur...)
		}
		for i := idx; i < in.K; i++ {
			p := order[i]
			nc := cost + in.Cost[p]
			if nc > cmax {
				// order is cost-ascending: all later choices cost at least
				// as much, and supersets only grow (Formula 7) — prune.
				break
			}
			cur = append(cur, p)
			acc.Add(in.Doi[p])
			rec(i+1, nc)
			acc.Remove(in.Doi[p])
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)

	sol := in.solutionFor(best, true)
	if len(best) == 0 && in.BaseCost > cmax {
		// Even the unpersonalized query violates the bound.
		sol.Feasible = false
	}
	st.Duration = time.Since(start)
	sol.Stats = st
	return sol
}
