package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cqp/internal/catalog"
	"cqp/internal/estimate"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/sqlparse"
	"cqp/internal/testutil"
)

// randInstance builds a random valid instance: dois descending in (0,1),
// costs in [1, 100], shrinks in (0, 1].
func randInstance(t testing.TB, rng *rand.Rand, k int) *Instance {
	t.Helper()
	dois := make([]float64, k)
	costs := make([]float64, k)
	shrinks := make([]float64, k)
	for i := range dois {
		dois[i] = rng.Float64()*0.98 + 0.01
		costs[i] = 1 + rng.Float64()*99
		shrinks[i] = 0.05 + rng.Float64()*0.95
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dois)))
	in, err := NewInstance(dois, costs, shrinks, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	ok := []float64{0.9, 0.5}
	if _, err := NewInstance(ok, []float64{1}, []float64{1, 1}, 1, 10); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewInstance([]float64{0.5, 0.9}, []float64{1, 1}, []float64{1, 1}, 1, 10); err == nil {
		t.Error("non-descending dois should fail")
	}
	if _, err := NewInstance([]float64{1.5, 0.5}, []float64{1, 1}, []float64{1, 1}, 1, 10); err == nil {
		t.Error("doi > 1 should fail")
	}
	if _, err := NewInstance(ok, []float64{-1, 1}, []float64{1, 1}, 1, 10); err == nil {
		t.Error("negative cost should fail")
	}
	if _, err := NewInstance(ok, []float64{1, 1}, []float64{2, 1}, 1, 10); err == nil {
		t.Error("shrink > 1 should fail")
	}
	in, err := NewInstance(ok, []float64{3, 7}, []float64{0.5, 0.25}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.BaseSize != 1000 {
		t.Error("default base size")
	}
	// C sorts by cost descending: cost[1]=7 > cost[0]=3.
	if c := in.CostOrder(); c[0] != 1 || c[1] != 0 {
		t.Errorf("C = %v", c)
	}
	// S sorts by shrink ascending: shrink[1]=0.25 < shrink[0]=0.5.
	if s := sizeVector(in); s[0] != 1 || s[1] != 0 {
		t.Errorf("S = %v", s)
	}
}

func TestSetParameterFunctions(t *testing.T) {
	in, _ := NewInstance([]float64{0.8, 0.5}, []float64{10, 5}, []float64{0.5, 0.2}, 3, 100)
	if got := in.SetCost(nil); got != 3 {
		t.Errorf("empty cost = %g, want base 3", got)
	}
	if got := in.SetCost([]int{0, 1}); got != 15 {
		t.Errorf("cost = %g", got)
	}
	if got := in.SetDoi([]int{0, 1}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("doi = %g", got)
	}
	if got := in.SetSize([]int{0, 1}); math.Abs(got-10) > 1e-9 {
		t.Errorf("size = %g", got)
	}
	if got := in.SupremeCost(); got != 15 {
		t.Errorf("supreme = %g", got)
	}
	empty := &Instance{BaseCost: 4}
	if empty.SupremeCost() != 4 {
		t.Error("empty supreme is base cost")
	}
}

func TestSolutionString(t *testing.T) {
	in, _ := NewInstance([]float64{0.8}, []float64{10}, []float64{0.5}, 3, 100)
	s := in.solutionFor([]int{0}, true)
	s.Stats.Algorithm = "X"
	if str := s.String(); str == "" {
		t.Error("empty String")
	}
}

func TestFromSpace(t *testing.T) {
	// Build through the real pipeline to cover FromSpace.
	db := testutil.MovieDB(256)
	est := estimate.New(catalog.MustBuild(db), 1)
	profile, err := prefs.ParseProfile(`
doi(MOVIE.mid = GENRE.mid) = 0.9
doi(GENRE.genre = 'comedy') = 0.7
doi(MOVIE.year >= 1980) = 0.6
`)
	if err != nil {
		t.Fatal(err)
	}
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE")
	sp, err := prefspace.Build(q, profile, est, prefspace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := FromSpace(sp)
	if in.K != sp.K || in.BaseCost != sp.BaseCost || in.BaseSize != sp.BaseSize {
		t.Errorf("FromSpace mismatch: %+v vs space", in)
	}
	for i := range sp.P {
		if in.Doi[i] != sp.P[i].Doi || in.Cost[i] != sp.P[i].Cost || in.Shrink[i] != sp.P[i].Shrink {
			t.Errorf("parameter %d mismatch", i)
		}
	}
}

func TestVectorsTable2(t *testing.T) {
	// Table 2 of the paper: P = {p1,p2,p3} with
	//   doi  = 0.5, 0.8, 0.7
	//   cost = 10, 5, 12
	//   size = 3, 2, 10
	// gives D = {2,3,1}, C = {3,1,2}, S = {2,1,3} (1-based).
	// D is defined over P sorted by doi, so P here is given doi-sorted:
	// p2(0.8), p3(0.7), p1(0.5) with matching cost and size (a base size of
	// 10 rows, so shrink = size / 10). Over that P the 0-based vectors are
	// D = {0,1,2}, C = {1,2,0} and S = {0,2,1}.
	in, err := NewInstance([]float64{0.8, 0.7, 0.5}, []float64{5, 12, 10}, []float64{0.2, 1, 0.3}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantD := []int{0, 1, 2}
	wantC := []int{1, 2, 0} // costs 12, 10, 5 decreasing
	wantS := []int{0, 2, 1} // sizes 2, 3, 10 increasing
	d, c, s := in.doiSpace().vec, in.CostOrder(), sizeVector(in)
	if !slices.Equal(d, wantD) || !slices.Equal(c, wantC) || !slices.Equal(s, wantS) {
		t.Errorf("D=%v C=%v S=%v", d, c, s)
	}
}

func TestProblemBetterTieBreaks(t *testing.T) {
	p2 := Problem2(10)
	if !p2.better(0.5, 3, 0.5, 4) {
		t.Error("equal doi: cheaper wins under MaxDoi")
	}
	if p2.better(0.5, 4, 0.5, 3) {
		t.Error("equal doi: pricier must not win")
	}
	p4 := Problem4(0.5)
	if !p4.better(0.9, 3, 0.5, 3) {
		t.Error("equal cost: higher doi wins under MinCost")
	}
	if p4.better(0.4, 3, 0.5, 3) {
		t.Error("equal cost: lower doi must not win")
	}
}

func TestLogWeightEdges(t *testing.T) {
	if logWeight(0) != wCap {
		t.Error("zero factor caps")
	}
	if logWeight(1) != 0 {
		t.Error("unit factor weighs nothing")
	}
	if w := logWeight(1e-400); w != wCap {
		t.Error("underflow caps")
	}
	prev := wCap + 1
	for _, f := range []float64{1e-10, 0.01, 0.5, 0.9, 1} {
		w := logWeight(f)
		if w >= prev {
			t.Errorf("logWeight not strictly decreasing at %g", f)
		}
		prev = w
	}
}

func TestSizeSpace(t *testing.T) {
	in, _ := NewInstance(
		[]float64{0.9, 0.8, 0.7},
		[]float64{5, 10, 3},
		[]float64{0.5, 0.1, 0.9},
		2, 100)
	sp := in.sizeSpace()
	// S ascending size = ascending shrink: P indices by shrink: 1(0.1), 0(0.5), 2(0.9).
	if sp.vec[0] != 1 || sp.vec[1] != 0 || sp.vec[2] != 2 {
		t.Fatalf("size space vec = %v", sp.vec)
	}
	// Weights non-increasing.
	for i := 1; i < len(sp.w); i++ {
		if sp.w[i] > sp.w[i-1]+1e-12 {
			t.Fatal("size weights must be non-increasing")
		}
	}
	// costOf/sizeOf/doiOf on the empty node return base parameters.
	if sp.costOf(in, nodeOf()) != in.BaseCost || sp.sizeOf(in, nodeOf()) != in.BaseSize || sp.doiOf(in, nodeOf()) != 0 {
		t.Error("empty-node parameters")
	}
}

// TestStateAggregation: a set's doi, cost and size under Formulas 10, 6
// and the independence model, and the empty set as the original query.
func TestStateAggregation(t *testing.T) {
	in, err := NewInstance([]float64{0.8, 0.5}, []float64{4, 3}, []float64{0.1, 0.5}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d, c, s := in.SetDoi(nil), in.SetCost(nil), in.SetSize(nil); d != 0 || c != 10 || s != 100 {
		t.Errorf("empty set: doi %g, cost %g, size %g", d, c, s)
	}
	both := []int{0, 1}
	if got := in.SetDoi(both); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("doi = %g", got)
	}
	if got := in.SetCost(both); got != 7 {
		t.Errorf("cost = %g (cost of Q∧Px is the sum of sub-query costs)", got)
	}
	if got := in.SetSize(both); math.Abs(got-5) > 1e-12 {
		t.Errorf("size = %g", got)
	}
}

// TestPartialOrders verifies Formulas 4, 7 and 8 on random subsets: the
// monotone partial orders the search algorithms depend on, on the set
// functions they call.
func TestPartialOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 8
	dois := make([]float64, n)
	costs := make([]float64, n)
	shrinks := make([]float64, n)
	for i := 0; i < n; i++ {
		dois[i] = rng.Float64()
		costs[i] = 1 + rng.Float64()*20
		shrinks[i] = rng.Float64()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dois)))
	in, err := NewInstance(dois, costs, shrinks, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pick := func(mask int) []int {
		var set []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, i)
			}
		}
		return set
	}
	for trial := 0; trial < 500; trial++ {
		x := rng.Intn(1 << n)
		y := x | rng.Intn(1<<n) // y ⊇ x
		sx, sy := pick(x), pick(y)
		if dx, dy := in.SetDoi(sx), in.SetDoi(sy); dx > dy+1e-12 {
			t.Fatalf("Formula 4 violated: %v ⊆ %v but doi %g > %g", sx, sy, dx, dy)
		}
		if cx, cy := in.SetCost(sx), in.SetCost(sy); x != 0 && cx > cy+1e-9 {
			t.Fatalf("Formula 7 violated: %v ⊆ %v but cost %g > %g", sx, sy, cx, cy)
		}
		if zx, zy := in.SetSize(sx), in.SetSize(sy); zx < zy-1e-9 {
			t.Fatalf("Formula 8 violated: %v ⊆ %v but size %g < %g", sx, sy, zx, zy)
		}
	}
}
