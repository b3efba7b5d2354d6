package core

import "fmt"

// Problem2Solver is the signature shared by the five state-space algorithms
// of Section 5.2 (and EXHAUSTIVE): solve Problem 2 for the given cmax.
type Problem2Solver func(in *Instance, cmax float64) Solution

// Algorithms lists the paper's five algorithms in the order Figures 12–14
// plot them, keyed by the names the figures use.
var Algorithms = []struct {
	Name  string
	Solve Problem2Solver
	// Exact marks the provably correct algorithms (Theorems 2 and 3);
	// the rest are the heuristics Figure 14 grades.
	Exact bool
}{
	{"D_MaxDoi", DMaxDoi, true},
	{"D_SingleMaxDoi", DSingleMaxDoi, false},
	{"C_Boundaries", CBoundaries, true},
	{"C_MaxBounds", CMaxBounds, false},
	{"D_HeurDoi", DHeurDoi, false},
}

// SolverByName returns the named Problem-2 solver ("EXHAUSTIVE" and
// "BRANCH-BOUND" included).
func SolverByName(name string) (Problem2Solver, error) {
	switch name {
	case "EXHAUSTIVE":
		return Exhaustive, nil
	case "BRANCH-BOUND":
		return func(in *Instance, cmax float64) Solution {
			return BranchBound(in, Problem2(cmax))
		}, nil
	}
	for _, a := range Algorithms {
		if a.Name == name {
			return a.Solve, nil
		}
	}
	return nil, fmt.Errorf("core: unknown algorithm %q", name)
}

// Solve answers any CQP Problem of Table 1 by one rule: BranchBound, which
// is exact on all six and cuts on the monotonicity the paper's algorithms
// exploit. The paper's algorithms are the reproduction and run by name: a
// non-empty algo must be one SolverByName knows, and on Problem 2 — the
// problem they solve — it runs in BranchBound's place. On any other problem
// a Problem-2 algorithm has nothing to say and the default answers.
func Solve(in *Instance, prob Problem, algo string) (Solution, error) {
	if err := prob.Validate(); err != nil {
		return Solution{}, err
	}
	if algo != "" {
		solver, err := SolverByName(algo)
		if err != nil {
			return Solution{}, err
		}
		if prob == Problem2(prob.CostMax) {
			return surfaceFault(solver(in, prob.CostMax))
		}
	}
	return surfaceFault(BranchBound(in, prob))
}

// surfaceFault turns a solution's recorded injected-fault abort into
// Solve's error return. The (partial) solution still rides along for
// callers that want the best-so-far answer despite the fault.
func surfaceFault(sol Solution) (Solution, error) {
	return sol, sol.Stats.Fault
}
