package core

import (
	"fmt"
	"sort"
	"time"
)

// Solution is the outcome of one CQP optimization: the selected subset of P
// (as sorted P indices) with its parameters and run statistics.
type Solution struct {
	// Set holds the selected preference indices into P, sorted ascending.
	// Empty means "no preferences" — the original query.
	Set []int
	// Doi, Cost, Size are the parameters of Q ∧ Set under the instance's
	// estimation model.
	Doi  float64
	Cost float64
	Size float64
	// Feasible reports whether the solution satisfies the problem's
	// constraints. When no state (not even the empty one) is feasible,
	// Feasible is false and Set is empty.
	Feasible bool
	// Stats carries the run's instrumentation.
	Stats Stats
}

// solutionFor materializes a Solution for a P-index set.
func (in *Instance) solutionFor(set []int, feasible bool) Solution {
	s := append([]int(nil), set...)
	sort.Ints(s)
	return Solution{
		Set:      s,
		Doi:      in.SetDoi(s),
		Cost:     in.SetCost(s),
		Size:     in.SetSize(s),
		Feasible: feasible,
	}
}

// String renders the solution compactly.
func (s Solution) String() string {
	return fmt.Sprintf("set=%v doi=%.6f cost=%.1fms size=%.1f feasible=%v (%s %v, %d states, %d bytes)",
		s.Set, s.Doi, s.Cost, s.Size, s.Feasible,
		s.Stats.Algorithm, s.Stats.Duration.Round(time.Microsecond),
		s.Stats.StatesVisited, s.Stats.PeakMemBytes)
}
