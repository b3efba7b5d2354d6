// Package core implements the paper's main contribution: Constrained
// Query Personalization as state-space search (Sections 4–6).
//
// An Instance is the preference set P in decreasing-doi order: the
// per-preference parameters and nothing derived from them. States are
// subsets of P encoded as position sets over one of the paper's pointer
// vectors (D, the identity, or C, derived where it is walked);
// transitions (Horizontal, Vertical, Horizontal2) are the paper's syntactic
// edits whose monotone effects on doi, cost and size (Formulas 4, 7, 8)
// the search algorithms exploit.
//
// Algorithms provided: EXHAUSTIVE (ground truth), C-BOUNDARIES and
// C-MAXBOUNDS on the cost space, D-MAXDOI, D-SINGLEMAXDOI and D-HEURDOI on
// the doi space (Section 5.2), all five for Problem 2, and a
// branch-and-bound exact solver covering all six CQP problems of Table 1,
// which is the one solver for Problems 1 and 3: Section 6's re-oriented
// boundary searches are not implemented.
package core

import (
	"fmt"
	"math"

	"cqp/internal/fault"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
)

// Instance is the numeric core of one CQP problem: preference parameters in
// P (decreasing doi) order. The C vector is derived from Cost on demand
// (CostOrder); the paper's S vector is not, as no solver searches it.
type Instance struct {
	// K is the number of preferences.
	K int
	// Doi[i] is the degree of interest of P[i]; non-increasing in i.
	Doi []float64
	// Cost[i] is cost(Q ∧ P[i]) in milliseconds — the cost of the sub-query
	// integrating P[i] alone (Formula 11). State cost is the sum over
	// members (Formula 6).
	Cost []float64
	// Shrink[i] is the multiplicative size factor of P[i] (≤ 1). State size
	// is BaseSize × Π Shrink over members (Formula 8's model).
	Shrink []float64
	// BaseCost is cost(Q) — the cost of the unpersonalized query, used when
	// no preference is selected.
	BaseCost float64
	// BaseSize is the estimated result size of Q.
	BaseSize float64
	// StateBudget, when positive, caps the number of states a search may
	// visit; exceeding it stops the search early with the best solution
	// found so far and Stats.Truncated set. The experiment harness uses it
	// to keep the paper's deliberately slow algorithms (D-MAXDOI at K=40
	// runs for ~900 s in the paper) within a wall-clock envelope. Zero
	// means unlimited, which is what correctness tests use.
	StateBudget int
	// DisableMemo turns off the visited-set memoization our implementation
	// adds over the paper ("the algorithm does not actually store the part
	// of graph visited", Section 5.2.1). Paper-faithful mode: far less
	// memory, exponentially more revisits — pair it with a StateBudget.
	// The memo ablation experiment quantifies the trade.
	DisableMemo bool
}

// overBudget reports whether the search should stop, flagging truncation.
// Every algorithm consults it per state, which also makes it the harness's
// search.expand fault point: an injected fault aborts the search like an
// exhausted budget, with the cause recorded in st.Fault. Disarmed cost is
// one atomic load.
func (in *Instance) overBudget(st *Stats) bool {
	if st.Fault != nil {
		return true
	}
	if err := fault.Inject(fault.SearchExpand); err != nil {
		st.Fault = fmt.Errorf("core: state expansion: %w", err)
		st.Truncated = true
		return true
	}
	if in.StateBudget > 0 && st.StatesVisited >= in.StateBudget {
		st.Truncated = true
		return true
	}
	return false
}

// FromSpace builds an Instance from a preference space: the parameters of P
// in doi order.
func FromSpace(sp *prefspace.Space) *Instance {
	k := len(sp.P)
	params := make([]float64, 3*k)
	inst := &Instance{
		K:        k,
		Doi:      params[:k:k],
		Cost:     params[k : 2*k : 2*k],
		Shrink:   params[2*k:],
		BaseCost: sp.BaseCost,
		BaseSize: sp.BaseSize,
	}
	for i, p := range sp.P {
		inst.Doi[i], inst.Cost[i], inst.Shrink[i] = p.Doi, p.Cost, p.Shrink
	}
	return inst
}

// NewInstance builds an Instance directly from parameter slices (tests,
// synthetic workloads). Dois must be non-increasing. baseSize ≤ 0 defaults
// to 1000 rows.
func NewInstance(dois, costs, shrinks []float64, baseCost, baseSize float64) (*Instance, error) {
	k := len(dois)
	if len(costs) != k || len(shrinks) != k {
		return nil, fmt.Errorf("core: parameter slices must share length: %d, %d, %d",
			k, len(costs), len(shrinks))
	}
	for i := 0; i < k; i++ {
		if dois[i] < 0 || dois[i] > 1 || math.IsNaN(dois[i]) {
			return nil, fmt.Errorf("core: doi[%d] = %g out of [0,1]", i, dois[i])
		}
		if i > 0 && dois[i] > dois[i-1]+1e-12 {
			return nil, fmt.Errorf("core: dois must be non-increasing (P order)")
		}
		if costs[i] < 0 || math.IsNaN(costs[i]) || math.IsInf(costs[i], 0) {
			return nil, fmt.Errorf("core: cost[%d] = %g invalid", i, costs[i])
		}
		if shrinks[i] < 0 || shrinks[i] > 1 || math.IsNaN(shrinks[i]) {
			return nil, fmt.Errorf("core: shrink[%d] = %g out of [0,1]", i, shrinks[i])
		}
	}
	if baseSize <= 0 {
		baseSize = 1000
	}
	return &Instance{
		K:        k,
		Doi:      append([]float64(nil), dois...),
		Cost:     append([]float64(nil), costs...),
		Shrink:   append([]float64(nil), shrinks...),
		BaseCost: baseCost,
		BaseSize: baseSize,
	}, nil
}

// CostOrder returns the paper's C vector: P positions ordered by
// non-increasing Cost, equal costs in P order. Each call derives it afresh.
func (in *Instance) CostOrder() []int {
	return rankBy(in.K, func(a, b int) bool { return in.Cost[a] > in.Cost[b] })
}

// rankBy returns the stable permutation of 0..k-1 under the strict order,
// by insertion: the paper's addrank construction (Figure 3), and K is small.
func rankBy(k int, less func(a, b int) bool) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	for i := 1; i < k; i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// SetDoi computes doi(Q ∧ Px) for a set of P indices (Formula 10).
func (in *Instance) SetDoi(set []int) float64 {
	acc := prefs.NewConjAccum()
	for _, i := range set {
		acc.Add(in.Doi[i])
	}
	return acc.Doi()
}

// SetCost computes cost(Q ∧ Px) for a set of P indices (Formula 6): the sum
// of sub-query costs, or the base query cost for the empty set.
func (in *Instance) SetCost(set []int) float64 {
	if len(set) == 0 {
		return in.BaseCost
	}
	c := 0.0
	for _, i := range set {
		c += in.Cost[i]
	}
	return c
}

// SetSize computes the estimated size of Q ∧ Px for a set of P indices.
func (in *Instance) SetSize(set []int) float64 {
	s := in.BaseSize
	for _, i := range set {
		s *= in.Shrink[i]
	}
	return s
}

// SupremeCost is the cost of integrating all K preferences — the reference
// point for the paper's cmax percentages (Section 7.2).
func (in *Instance) SupremeCost() float64 {
	if in.K == 0 {
		return in.BaseCost
	}
	c := 0.0
	for _, x := range in.Cost {
		c += x
	}
	return c
}
