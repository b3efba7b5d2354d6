package core

import (
	"math"
	"math/bits"
	"time"

	"cqp/internal/prefs"
)

// BranchBound is the exact solver for the full CQP family and what Solve
// runs when no algorithm is named: a depth-first branch-and-bound over
// subsets of P (in doi order) that handles every Problem of Table 1. It
// exploits the same monotone partial orders as the state-space algorithms
// (Formulas 4, 7, 8) for pruning:
//
//   - cost only grows with additions → subtrees beyond CostMax are cut;
//   - size only shrinks with additions → subtrees already below SizeMin
//     are cut;
//   - doi only grows, bounded by conjoining all remaining preferences →
//     subtrees that cannot reach DoiMin, or cannot beat the incumbent
//     under ObjMaxDoi, are cut;
//   - under ObjMaxDoi with a CostMax that binds (Problems 2 and 3),
//     Formulas 6 and 10 make the problem a knapsack in the log domain —
//     maximize Σ −log(1 − dᵢ) under Σ cᵢ ≤ CostMax — and a subtree is cut
//     when the fractional (Dantzig) bound of that knapsack over the
//     remaining preferences and the remaining CostMax proves every
//     completion's doi strictly below the incumbent's;
//   - under ObjMinCost a partial sum at or above the incumbent is cut.
//
// A cut removes only states that could not replace the incumbent, so the
// knapsack bound changes no answer the search finishes: it visits fewer
// states and keeps the same sequence of incumbents.
//
// The paper introduces its algorithms because exhaustive search is O(2^K);
// they are the reproduction and run by name. The worst case here is
// exponential too: StateBudget bounds it and the incumbent is returned
// with Stats.Truncated set.
func BranchBound(in *Instance, prob Problem) Solution {
	start := time.Now()
	// The per-solve tables live on the stack up to K = bbStackK.
	var (
		suffix, minShrink [bbStackK + 1]float64
		weight, ratio     [bbStackK]float64
		order, set        [bbStackK]int
		cur, best         [bbStackK / 64]uint64
	)
	st := Stats{Algorithm: "BRANCH-BOUND"}
	s := bbSearch{in: in, prob: prob, st: &st}

	s.suffix = table(suffix[:], in.K+1)
	s.minShrink = table(minShrink[:], in.K+1)
	// suffixConj's fold, into the stack table.
	var acc prefs.ConjAccum
	acc.Reset()
	s.suffix[in.K], s.minShrink[in.K] = 0, 1
	for k := in.K - 1; k >= 0; k-- {
		acc.Add(in.Doi[k])
		s.suffix[k] = acc.Doi()
		s.minShrink[k] = s.minShrink[k+1] * in.Shrink[k]
	}
	s.cur, s.best = table(cur[:], (in.K+63)/64), table(best[:], (in.K+63)/64)

	if prob.Objective == ObjMaxDoi && prob.CostMax > 0 && prob.CostMax < in.SupremeCost() {
		s.knap = true
		s.weight = table(weight[:], in.K)
		ratio := table(ratio[:], in.K)
		s.order = table(order[:], in.K)[:0]
		for i, d := range in.Doi {
			s.weight[i] = -math.Log1p(-d) // +Inf at doi 1
			if s.weight[i] == 0 {
				continue // adds nothing to any bound
			}
			ratio[i] = s.weight[i] / in.Cost[i] // +Inf when free; never NaN
			// Insertion keeps the order stable and non-increasing.
			j := len(s.order)
			s.order = append(s.order, i)
			for ; j > 0 && ratio[s.order[j-1]] < ratio[i]; j-- {
				s.order[j] = s.order[j-1]
			}
			s.order[j] = i
		}
		// The include test admits a set whose cost, summed in floating
		// point, is within CostMax + 1e-9; its exact sum can be larger by
		// K rounding errors. A capacity larger by a relative 1e-9 covers
		// them, and a larger capacity only loosens the bound.
		s.limit = (prob.CostMax + 1e-9) * (1 + 1e-9)
	}

	// The empty personalization (the original query) is always a candidate.
	s.consider(0, in.BaseCost, in.BaseSize)
	s.rec(0, 1, 0, in.BaseSize)

	var sol Solution
	if s.bestFound {
		picked := set[:0]
		for w, word := range s.best {
			for ; word != 0; word &= word - 1 {
				picked = append(picked, w*64+bits.TrailingZeros64(word))
			}
		}
		sol = in.solutionFor(picked, true)
	} else {
		sol = Solution{Feasible: false}
	}
	st.Duration = time.Since(start)
	sol.Stats = st
	return sol
}

// bbStackK is the largest K whose per-solve tables BranchBound keeps on
// the stack; a larger instance allocates them.
const bbStackK = 64

// table returns buf[:n], or a new slice when buf is shorter than n.
func table[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// bbSearch is one BranchBound solve: the problem, the per-solve tables,
// the path being extended and the incumbent.
type bbSearch struct {
	in   *Instance
	prob Problem
	st   *Stats // not a copy: copying the struct's Stats into the answer would send every table to the heap

	suffix    []float64 // suffix[k] = doi of preferences k..K−1
	minShrink []float64 // minShrink[k] = Π Shrink[k..K−1]: the smallest factor the rest can apply

	cur, best         []uint64 // bitsets over P indices: the path and the incumbent
	bestFound         bool
	bestDoi, bestCost float64

	// The knapsack bound, set up only under ObjMaxDoi with a binding cmax.
	knap   bool
	weight []float64 // weight[i] = −log(1 − dᵢ)
	order  []int     // P indices of positive weight, by non-increasing weight/cost
	limit  float64   // the capacity at cost 0
	cut    float64   // a completion of weight below cut has a doi below the incumbent's
}

// consider counts the path as a visited state and makes it the incumbent
// if it is feasible and better.
func (s *bbSearch) consider(doi, cost, size float64) {
	s.st.StatesVisited++
	if !s.prob.Feasible(doi, cost, size) {
		return
	}
	if !s.bestFound || s.prob.better(doi, cost, s.bestDoi, s.bestCost) {
		s.bestFound = true
		s.bestDoi, s.bestCost = doi, cost
		copy(s.best, s.cur)
		if s.knap {
			s.cut = weightBelow(doi)
		}
	}
}

// rec decides preferences k.. below the path, whose cost and size are
// given and whose doi is 1 − rest. rest is Π(1 − dᵢ) over the path,
// multiplied in ascending index order — the fold SetDoi makes, so every cut
// is decided on the doi solutionFor will report, and backing out of a
// branch has nothing to undo.
func (s *bbSearch) rec(k int, rest, cost, size float64) {
	in, prob := s.in, &s.prob
	if k == in.K || in.overBudget(s.st) {
		return
	}
	// Bound: best doi any completion can reach.
	maxDoi := 1 - rest*(1-s.suffix[k])
	if prob.DoiMin > 0 && maxDoi < prob.DoiMin-1e-12 {
		return
	}
	if prob.Objective == ObjMaxDoi && s.bestFound && maxDoi <= s.bestDoi {
		return
	}
	// Bound: size can only shrink; if even taking everything stays
	// above SizeMax, no completion is feasible.
	if prob.SizeMax > 0 && size*s.minShrink[k] > prob.SizeMax+1e-9 {
		return
	}
	// Branch 1: include preference k.
	nc := cost + in.Cost[k]
	ns := size * in.Shrink[k]
	costOK := prob.CostMax == 0 || nc <= prob.CostMax+1e-9
	sizeOK := prob.SizeMin == 0 || ns >= prob.SizeMin-1e-9
	minCostOK := prob.Objective != ObjMinCost || !s.bestFound || nc < s.bestCost
	if costOK && sizeOK && minCostOK {
		// Bound: best doi any completion can reach within CostMax. It is
		// taken only where preference k can join: where it cannot, no
		// state is visited before the next node, whose bound is as tight.
		if s.knap && s.bestFound && s.belowIncumbent(k, cost) {
			return
		}
		bit := uint64(1) << (k % 64)
		s.cur[k/64] |= bit
		nr := rest * (1 - in.Doi[k])
		s.consider(1-nr, nc, ns)
		s.rec(k+1, nr, nc, ns)
		s.cur[k/64] &^= bit
	}
	// Branch 2: exclude preference k.
	s.rec(k+1, rest, cost, size)
}

// belowIncumbent reports whether every completion of the path with
// preferences k.. has a weight below s.cut: the path's weight plus the
// fractional knapsack bound — whole preferences in weight/cost order while
// they fit in what is left of the capacity, then the fitting fraction of
// the next. It stops as soon as the sum reaches the cut.
func (s *bbSearch) belowIncumbent(k int, cost float64) bool {
	w := 0.0
	for i, word := range s.cur {
		for ; word != 0; word &= word - 1 {
			w += s.weight[i*64+bits.TrailingZeros64(word)]
		}
	}
	room := s.limit - cost
	for _, i := range s.order {
		if w >= s.cut {
			return false
		}
		if i < k {
			continue
		}
		c := s.in.Cost[i]
		if c <= room {
			room -= c
			w += s.weight[i]
			continue
		}
		if room > 0 { // then c > 0, and a weight of +Inf stays +Inf
			w += s.weight[i] * (room / c)
		}
		break
	}
	return w < s.cut
}

// weightBelow returns the log-domain weight below which a set's doi, as
// SetDoi folds it, is strictly below doi. A set of weight W has the product
// P = Π(1 − dᵢ) = e^−W exactly, and its folded product is within a
// relative K·2^−52 of that; 1 − P rounds to a value below doi whenever
// P > 1 − doi + 2^−53. So the cut is −log(1 − doi + 2^−50), shrunk by a
// relative and an absolute 1e-9 that cover the rounding of the weights,
// their sums and the logarithm. A set of weight above the cut may still
// fall short of doi: the bound is conservative, never wrong. At doi 1 the
// cut is about 34.7, so no set whose fold rounds to 1 — a tie, broken on
// cost — is below it; at doi 0 it is negative and nothing is.
func weightBelow(doi float64) float64 {
	return -math.Log(1-doi+0x1p-50)*(1-1e-9) - 1e-9
}
