package core

import "testing"

// solveSink keeps the benchmarked solves from being optimized away.
var solveSink Solution

// BenchmarkSolve times the search alone, on the golden instances: the five
// Problem-2 algorithms and the serving path (Solve naming no algorithm,
// which runs BranchBound) on Problems 2 and 3 at the serving default K = 20
// (one-word states, bitmap visited set), and C_MaxBounds at K = 40 under a
// 2^20-state budget (map visited set).
// states/op is Stats.StatesVisited. For the paper's algorithms it must not
// move when only the speed does. For BranchBound it may fall, under
// TestGoldenBB's rule: only where the run finishes and the answer is
// identical.
func BenchmarkSolve(b *testing.B) {
	run := func(name string, solve func() Solution) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				solveSink = solve()
			}
			b.ReportMetric(float64(solveSink.Stats.StatesVisited), "states/op")
		})
	}
	in := goldenInstance(b, 20, 1020, false)
	cmax := 0.36 * in.SupremeCost()
	for _, a := range Algorithms {
		run(a.Name+"/k20", func() Solution { return a.Solve(in, cmax) })
	}
	run("Solve/P2/k20", func() Solution { sol, _ := Solve(in, Problem2(cmax), ""); return sol })
	run("Solve/P3/k20", func() Solution { sol, _ := Solve(in, Problem3(cmax, 5, 300), ""); return sol })

	wide := goldenInstance(b, 40, 1040, false)
	wide.StateBudget = 1 << 20
	run("C_MaxBounds/k40", func() Solution { return CMaxBounds(wide, 0.36*wide.SupremeCost()) })
}
