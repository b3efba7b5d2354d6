package core

import "testing"

// TestSearchAllocs is the allocation tripwire for the search hot path. A
// search allocates its containers (queue, visited set, boundary list) and
// lets them grow; it must not allocate per state or per transition. Nearly
// all of what remains is the visited map growing, which depends on the
// runtime's map: the bounds are twice what the Go 1.22 map needs (the Go
// 1.24 map needs a fifth of that). The slice-per-node representation made
// 5.65 M, 2.42 M, 374 k, 53 k and 121 allocations on this instance.
func TestSearchAllocs(t *testing.T) {
	in := goldenInstance(t, 20, 1020, false)
	cmax := 0.4 * in.SupremeCost()
	bounds := map[string]float64{
		"D_MaxDoi":       40000,
		"D_SingleMaxDoi": 16000,
		"C_Boundaries":   5000,
		"C_MaxBounds":    400,
		"D_HeurDoi":      25,
	}
	for _, a := range Algorithms {
		var states int
		got := testing.AllocsPerRun(3, func() { states = a.Solve(in, cmax).Stats.StatesVisited })
		t.Logf("%s: %.0f allocs for %d states", a.Name, got, states)
		if got > bounds[a.Name] {
			t.Errorf("%s: %.0f allocs per solve, want ≤ %.0f", a.Name, got, bounds[a.Name])
		}
	}
}

// TestSearchAllocsVertical: a Vertical transition into a reused buffer
// allocates nothing, at one word and above it.
func TestSearchAllocsVertical(t *testing.T) {
	for _, k := range []int{20, 80} {
		sp := goldenInstance(t, k, int64(1000+k), false).costSpace()
		n := sp.nodeOf(0, 3, 4, 9, k-2)
		vr := sp.newList()
		sp.vertical(n, &vr) // first call sizes the buffer
		if got := testing.AllocsPerRun(100, func() { sp.vertical(n, &vr) }); got != 0 {
			t.Errorf("K=%d: vertical allocates %.0f times per call", k, got)
		}
		if vr.len() != 4 {
			t.Errorf("K=%d: %d neighbors, want 4", k, vr.len())
		}
	}
}
