package core

import (
	"testing"

	"cqp/internal/prefspace"
	"cqp/internal/workload"
)

// TestSearchAllocs is the allocation tripwire for the search hot path. A
// search allocates its containers (queue, boundary and solution lists,
// neighbor buffer) and lets them grow; it must not allocate per state or per
// transition. The visited set allocates nothing at this K — its bitmap comes
// from the pool, warm after the first solve — so what remains is those lists
// doubling (C_Boundaries keeps one per group size) and a dozen fixed-size
// pieces. The bounds are about twice what a solve makes (45, 32, 157, 39 and
// 12), on either of the runtime's maps. The serving path, a Solve that names
// no algorithm, keeps its tables, path and incumbent on the stack and
// allocates once: the answer's set.
func TestSearchAllocs(t *testing.T) {
	in := goldenInstance(t, 20, 1020, false)
	cmax := 0.4 * in.SupremeCost()
	bounds := map[string]float64{
		"D_MaxDoi":       100,
		"D_SingleMaxDoi": 70,
		"C_Boundaries":   320,
		"C_MaxBounds":    80,
		"D_HeurDoi":      25,
		"Solve":          2,
	}
	check := func(name string, solve func() Solution) {
		var states int
		got := testing.AllocsPerRun(3, func() { states = solve().Stats.StatesVisited })
		t.Logf("%s: %.0f allocs for %d states", name, got, states)
		if got > bounds[name] {
			t.Errorf("%s: %.0f allocs per solve, want ≤ %.0f", name, got, bounds[name])
		}
	}
	for _, a := range Algorithms {
		check(a.Name, func() Solution { return a.Solve(in, cmax) })
	}
	check("Solve", func() Solution {
		sol, _ := Solve(in, Problem2(cmax), "")
		return sol
	})
}

// TestSearchAllocsVertical: a Vertical transition into a reused buffer
// allocates nothing, at one word and above it — with a predicate that
// captures, as every search's does: vertical calls it and lets go, so the
// closure stays on the caller's stack.
func TestSearchAllocsVertical(t *testing.T) {
	for _, k := range []int{20, 80} {
		sp := goldenInstance(t, k, int64(1000+k), false).costSpace()
		n := sp.nodeOf(0, 3, 4, 9, k-2)
		vr := sp.newList()
		sp.vertical(n, &vr, keepAll) // first call sizes the buffer
		seed, calls := 0, 0
		got := testing.AllocsPerRun(100, func() {
			sp.vertical(n, &vr, func(v node) bool { calls++; return v.contains(seed) })
		})
		if got != 0 {
			t.Errorf("K=%d: vertical allocates %.0f times per call", k, got)
		}
		// Of the four neighbors, {1, 3, 4, 9, k−2} drops the seed.
		if vr.len() != 3 || calls != 4*101 {
			t.Errorf("K=%d: %d neighbors kept in %d calls, want 3 of 4 per run", k, vr.len(), calls)
		}
	}
}

// TestFromSpaceAllocs pins what turning a K = 20 preference space into an
// instance allocates: one block for its three parameter slices. FromSpace
// inlines, so the discarded instance itself stays on the stack here.
func TestFromSpaceAllocs(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 2000, Seed: 9}, 1)
	profile := workload.GenerateProfile(workload.ProfileConfig{Seed: 11})
	sp, err := prefspace.Build(workload.Queries(1, 7)[0], profile, env.Est, prefspace.Options{MaxK: 20})
	if err != nil || sp.K != 20 {
		t.Fatalf("K = %d, err = %v", sp.K, err)
	}
	if n := testing.AllocsPerRun(100, func() { FromSpace(sp) }); n > 1 {
		t.Errorf("FromSpace at K = 20 allocates %.0f times, want ≤ 1", n)
	}
}
