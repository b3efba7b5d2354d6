package core

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// dominates reports whether a dominates b: no lower doi (within 1e-12) and
// no higher cost (within 1e-9), and strictly better on one beyond those
// tolerances. It is the oracles' definition of the front.
func dominates(a, b ParetoPoint) bool {
	if a.Doi < b.Doi-1e-12 || a.Cost > b.Cost+1e-9 {
		return false
	}
	return a.Doi > b.Doi+1e-12 || a.Cost < b.Cost-1e-9
}

// bruteFront computes the exact doi/cost Pareto front by enumeration.
func bruteFront(in *Instance, opt ParetoOptions) []ParetoPoint {
	var all []ParetoPoint
	add := func(set []int) {
		p := ParetoPoint{
			Set:  append([]int(nil), set...),
			Doi:  in.SetDoi(set),
			Cost: in.SetCost(set),
			Size: in.SetSize(set),
		}
		if opt.CostMax > 0 && p.Cost > opt.CostMax+1e-9 {
			return
		}
		if opt.SizeMin > 0 && p.Size < opt.SizeMin-1e-9 {
			return
		}
		if opt.SizeMax > 0 && p.Size > opt.SizeMax+1e-9 {
			return
		}
		all = append(all, p)
	}
	add(nil)
	for mask := 1; mask < 1<<in.K; mask++ {
		var set []int
		for i := 0; i < in.K; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		add(set)
	}
	var front []ParetoPoint
	for _, p := range all {
		dominated := false
		for _, q := range all {
			if dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}

// frontSignature reduces a front to its distinct (doi, cost) pairs.
func frontSignature(front []ParetoPoint) map[[2]float64]bool {
	sig := make(map[[2]float64]bool)
	for _, p := range front {
		sig[[2]float64{math.Round(p.Doi * 1e9), math.Round(p.Cost * 1e6)}] = true
	}
	return sig
}

// TestParetoMatchesBruteForce: the branch-and-bound front equals the
// enumerated front (as a set of distinct objective vectors) on random
// instances, with and without constraints.
func TestParetoMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(8)
		in := randInstance(t, rng, k)
		opt := ParetoOptions{}
		if rng.Intn(2) == 0 {
			opt.CostMax = in.SupremeCost() * (0.3 + 0.5*rng.Float64())
		}
		if rng.Intn(3) == 0 {
			opt.SizeMin = in.SetSize(allIndices(in.K)) * 2
		}
		got, _ := ParetoFront(in, opt)
		want := bruteFront(in, opt)
		gs, ws := frontSignature(got), frontSignature(want)
		if len(gs) != len(ws) {
			t.Fatalf("trial %d: front size %d, want %d\n got %v\nwant %v",
				trial, len(gs), len(ws), got, want)
		}
		for sig := range ws {
			if !gs[sig] {
				t.Fatalf("trial %d: missing front point %v", trial, sig)
			}
		}
	}
}

// TestParetoFrontProperties: the front is cost-sorted, mutually
// non-dominated, doi-increasing with cost, and contains the Problem-2
// optimum for every cmax.
func TestParetoFrontProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(t, rng, 8)
		front, st := ParetoFront(in, ParetoOptions{})
		if st.Algorithm != "PARETO" || st.Duration <= 0 {
			t.Fatal("stats not populated")
		}
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					t.Fatalf("front contains dominated point: %v dominates %v", front[i], front[j])
				}
			}
			if i > 0 {
				if front[i].Cost < front[i-1].Cost {
					t.Fatal("front not cost-sorted")
				}
				if front[i].Doi <= front[i-1].Doi {
					t.Fatal("doi must increase along the cost-sorted front")
				}
			}
		}
		// Consistency with Problem 2: for random cmax values, the best
		// front point within budget matches the exhaustive optimum.
		for probe := 0; probe < 5; probe++ {
			cmax := in.SupremeCost() * (0.2 + 0.8*rng.Float64())
			want := Exhaustive(in, cmax)
			best := -1.0
			for _, p := range front {
				if p.Cost <= cmax+1e-9 && p.Doi > best {
					best = p.Doi
				}
			}
			if math.Abs(best-want.Doi) > 1e-9 {
				t.Fatalf("front misses P2 optimum at cmax %.1f: %v vs %v", cmax, best, want.Doi)
			}
		}
	}
}

func TestParetoMaxPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := randInstance(t, rng, 10)
	full, _ := ParetoFront(in, ParetoOptions{})
	if len(full) < 4 {
		t.Skip("front too small to thin")
	}
	thin, _ := ParetoFront(in, ParetoOptions{MaxPoints: 3})
	if len(thin) != 3 {
		t.Fatalf("thinned to %d, want 3", len(thin))
	}
	// Extremes survive thinning.
	if thin[0].Cost != full[0].Cost || thin[len(thin)-1].Doi != full[len(full)-1].Doi {
		t.Errorf("thinning dropped the extremes: %v vs %v", thin, full)
	}
}

func TestParetoEmptyAndDegenerate(t *testing.T) {
	empty := &Instance{BaseCost: 5, BaseSize: 100}
	front, _ := ParetoFront(empty, ParetoOptions{})
	if len(front) != 1 || front[0].Doi != 0 {
		t.Fatalf("empty instance front: %v", front)
	}
	// Impossible constraints: empty front.
	in, _ := NewInstance([]float64{0.5}, []float64{10}, []float64{0.5}, 1, 100)
	none, _ := ParetoFront(in, ParetoOptions{CostMax: 0.5})
	if len(none) != 0 {
		t.Fatalf("infeasible constraints must empty the front: %v", none)
	}
}

// TestKneePoint pins which point of a front KneeIndex names.
func TestKneePoint(t *testing.T) {
	if _, ok := KneeIndex(nil); ok {
		t.Error("empty front has no knee")
	}
	single := []ParetoPoint{{Doi: 0.5, Cost: 10}}
	if i, ok := KneeIndex(single); !ok || single[i].Doi != 0.5 {
		t.Error("single-point knee")
	}
	// A front with an obvious knee: big doi jump early, diminishing after.
	front := []ParetoPoint{
		{Doi: 0.10, Cost: 10},
		{Doi: 0.80, Cost: 20},
		{Doi: 0.85, Cost: 60},
		{Doi: 0.88, Cost: 100},
	}
	i, ok := KneeIndex(front)
	if !ok || front[i].Cost != 20 {
		t.Errorf("knee = %v, want the 20-cost point", front[i])
	}
	rng := rand.New(rand.NewSource(44))
	in := randInstance(t, rng, 8)
	f, _ := ParetoFront(in, ParetoOptions{})
	if i, ok := KneeIndex(f); ok && (i < 0 || i >= len(f)) {
		t.Errorf("knee index %d outside the %d-point front", i, len(f))
	}
}

// TestParetoBudget: truncation returns a valid partial front.
func TestParetoBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	in := randInstance(t, rng, 14)
	in.StateBudget = 50
	front, st := ParetoFront(in, ParetoOptions{})
	if !st.Truncated {
		t.Skip("budget not reached")
	}
	for i := range front {
		for j := range front {
			if i != j && dominates(front[i], front[j]) {
				t.Fatal("truncated front contains dominated points")
			}
		}
	}
}

// TestParetoFrontMatchesEnumeration holds ParetoFront to exhaustive
// enumeration at the serving K = 20, on a dozen of the benchmark's generated
// instances, unbounded and under serve_hot's /front bound of 0.3 × Supreme.
// (a) Every subset within the bound is covered by a returned point — one
// that costs no more within 1e-9 and has no lower doi within 1e-12 — so no
// point of the exhaustive front is missing. (b) Every returned point's doi
// is the Problem 2 optimum at its own cost within 1e-12.
func TestParetoFrontMatchesEnumeration(t *testing.T) {
	fronts := 0
	servingInstances(t, 12, []int{20}, func(profile, k int, in *Instance) {
		caps := [2]float64{0.3 * in.SupremeCost(), 0}
		var (
			front [2][]ParetoPoint
			reach [2][]float64 // reach[f][i]: the highest doi of front[f][:i+1]
			best  [2][]float64 // best[f][i]: the highest enumerated doi at cost ≤ front[f][i].Cost + 1e-9
			miss  [2]int       // subsets within the bound that no returned point covers
			worst [2]ParetoPoint
		)
		for f, cmax := range caps {
			var st Stats
			front[f], st = ParetoFront(in, ParetoOptions{CostMax: cmax})
			if st.Truncated {
				t.Fatalf("profile %d cmax %.1f: truncated after %d states", profile, cmax, st.StatesVisited)
			}
			reach[f] = make([]float64, len(front[f]))
			best[f] = make([]float64, len(front[f]))
			for i, p := range front[f] {
				reach[f][i] = p.Doi
				if i > 0 {
					reach[f][i] = max(p.Doi, reach[f][i-1])
				}
				best[f][i] = -1
			}
		}
		var walk func(i, members int, cost, keep float64)
		walk = func(i, members int, cost, keep float64) {
			if i < in.K {
				walk(i+1, members, cost, keep)
				walk(i+1, members+1, cost+in.Cost[i], keep*(1-in.Doi[i]))
				return
			}
			if members == 0 {
				cost = in.BaseCost
			}
			doi := 1 - keep
			for f, pts := range front {
				if caps[f] > 0 && cost > caps[f]+1e-9 {
					continue
				}
				// (a): the points costing at most cost + 1e-9 are a prefix.
				n := sort.Search(len(pts), func(i int) bool { return pts[i].Cost > cost+1e-9 })
				if n == 0 || reach[f][n-1] < doi-1e-12 {
					if miss[f] == 0 || cost < worst[f].Cost || cost == worst[f].Cost && doi > worst[f].Doi {
						worst[f] = ParetoPoint{Doi: doi, Cost: cost}
					}
					miss[f]++
				}
				// (b): the subset is within Problem 2's bound at every point
				// from the first whose cost + 1e-9 reaches it.
				j := sort.Search(len(pts), func(i int) bool { return pts[i].Cost >= cost-1e-9 })
				if j < len(pts) && doi > best[f][j] {
					best[f][j] = doi
				}
			}
		}
		walk(0, 0, 0, 1)
		for f, pts := range front {
			if miss[f] > 0 {
				t.Errorf("profile %d cmax %.1f: %d subsets uncovered by the %d-point front, the cheapest doi %.17g at cost %.17g",
					profile, caps[f], miss[f], len(pts), worst[f].Doi, worst[f].Cost)
			}
			opt := -1.0
			for i, p := range pts {
				opt = max(opt, best[f][i])
				if math.Abs(p.Doi-opt) > 1e-12 {
					t.Errorf("profile %d cmax %.1f: point %d (cost %.17g) has doi %.17g, the Problem 2 optimum at its cost is %.17g",
						profile, caps[f], i, p.Cost, p.Doi, opt)
				}
			}
			fronts++
		}
	})
	t.Logf("%d fronts", fronts)
}

// TestParetoLargeCosts: at costs of 10^7 ms and more, where a step of
// 2e-9 is below a cost's rounding, the cap still falls past each point.
// Each front finishes within its budget, one point per cost, and equals
// the brute-force front.
func TestParetoLargeCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, 1+rng.Intn(8))
		for i := range in.Cost {
			in.Cost[i] = math.Round(in.Cost[i] * 1e7)
		}
		in.BaseCost, in.StateBudget = 1e7, 1<<16
		got, st := ParetoFront(in, ParetoOptions{})
		if st.Truncated {
			t.Fatalf("trial %d: truncated after %d states with %d points", trial, st.StatesVisited, len(got))
		}
		if gs, ws := frontSignature(got), frontSignature(bruteFront(in, ParetoOptions{})); len(got) != len(ws) || !maps.Equal(gs, ws) {
			t.Fatalf("trial %d: %d points, %d distinct; brute force has %d", trial, len(got), len(gs), len(ws))
		}
	}
}

// TestParetoMaxPointsOne: a cap of one point keeps the front's top-doi
// point, which is Problem 2's answer under the same bounds. Thinning by
// index divides by MaxPoints − 1, so one point must not go through it.
func TestParetoMaxPointsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 50; trial++ {
		in := randInstance(t, rng, 2+rng.Intn(8))
		full, _ := ParetoFront(in, ParetoOptions{})
		got, st := ParetoFront(in, ParetoOptions{MaxPoints: 1})
		if st.Truncated || len(got) != 1 {
			t.Fatalf("trial %d: %d points (truncated %v) from a front of %d, want 1", trial, len(got), st.Truncated, len(full))
		}
		top := BranchBound(in, Problem{Objective: ObjMaxDoi})
		last := full[len(full)-1]
		if got[0].Doi != last.Doi || got[0].Cost != last.Cost || math.Abs(got[0].Doi-top.Doi) > 1e-12 {
			t.Fatalf("trial %d: kept %+v, want the top-doi point %+v (Problem 2: doi %v)", trial, got[0], last, top.Doi)
		}
	}
}
