package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
)

// updateGolden regenerates testdata/golden_search.json. The file records
// what the search did at the commit it was generated on, so it is only ever
// regenerated on the PARENT of a change to the search — never on the change
// itself, which must pass it unmodified.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_search.json from the current code")

// updateGoldenBB regenerates testdata/golden_bb.json, BranchBound's record.
var updateGoldenBB = flag.Bool("update-bb", false, "rewrite testdata/golden_bb.json from the current code")

const (
	goldenPath   = "testdata/golden_search.json"
	goldenBBPath = "testdata/golden_bb.json"
)

// goldenRun is one solver run pinned bit for bit: the answer and every
// Stats field but Duration.
type goldenRun struct {
	Case   string `json:"case"`
	Solver string `json:"solver"`

	Set      []int   `json:"set"`
	Doi      float64 `json:"doi"`
	Cost     float64 `json:"cost"`
	Size     float64 `json:"size"`
	Feasible bool    `json:"feasible"`

	StatesVisited  int   `json:"states_visited"`
	MemoHits       int   `json:"memo_hits"`
	QueueHighWater int   `json:"queue_high_water"`
	PeakMemBytes   int64 `json:"peak_mem_bytes"`
	Truncated      bool  `json:"truncated"`
}

// goldenInstance draws a seeded instance. The tied variant quantizes every
// parameter so that many states share a weight and the Vertical ordering's
// stable tie-break decides the visit order.
func goldenInstance(t testing.TB, k int, seed int64, tied bool) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dois := make([]float64, k)
	costs := make([]float64, k)
	shrinks := make([]float64, k)
	for i := 0; i < k; i++ {
		dois[i] = rng.Float64()*0.98 + 0.01
		costs[i] = 1 + rng.Float64()*99
		shrinks[i] = 0.05 + rng.Float64()*0.95
		if tied {
			dois[i] = math.Round(dois[i]*10)/10*0.9 + 0.05
			costs[i] = 10 * math.Ceil(costs[i]/10)
			shrinks[i] = math.Ceil(shrinks[i]*5) / 5
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(dois)))
	in, err := NewInstance(dois, costs, shrinks, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// goldenRuns solves the whole grid at the current code: K on both sides of
// the one-word limit, a continuous and a tied instance per K, memo on and
// paper-faithful (memo off, budgeted), and the five Problem-2 algorithms.
func goldenRuns(t testing.TB) []goldenRun {
	var runs []goldenRun
	for _, k := range []int{8, 20, 40, 64, 65, 80} {
		for _, tied := range []bool{false, true} {
			base := goldenInstance(t, k, int64(1000+k), tied)
			for _, memo := range []bool{true, false} {
				in := *base
				switch {
				case !memo:
					in.DisableMemo = true
					in.StateBudget = 20000
				case k > 20:
					// The exact searches are exponential; above the
					// paper's mid-range K they only finish under a budget.
					in.StateBudget = 60000
				}
				cmax := in.SupremeCost() * 0.4
				if tied {
					cmax = in.SupremeCost() * 0.25
				}
				name := fmt.Sprintf("k%d/tied=%v/memo=%v", k, tied, memo)
				record := func(solver string, sol Solution) {
					set := sol.Set
					if set == nil {
						set = []int{}
					}
					runs = append(runs, goldenRun{
						Case: name, Solver: solver,
						Set: set, Doi: sol.Doi, Cost: sol.Cost, Size: sol.Size, Feasible: sol.Feasible,
						StatesVisited:  sol.Stats.StatesVisited,
						MemoHits:       sol.Stats.MemoHits,
						QueueHighWater: sol.Stats.QueueHighWater,
						PeakMemBytes:   sol.Stats.PeakMemBytes,
						Truncated:      sol.Stats.Truncated,
					})
				}
				for _, a := range Algorithms {
					record(a.Name, a.Solve(&in, cmax))
				}
			}
		}
	}
	return runs
}

// goldenBBRuns solves all six problems with BranchBound on the same
// instances, each under the serving default budget of 2^20 states, and then
// the serving regime: the first four of the benchmark's generated instances
// at K = 20 and K = 10 under personalize_cold's Problem-2 band and its
// Problem-3 windows. It returns the problem of each run beside it.
func goldenBBRuns(t testing.TB) ([]goldenRun, []Problem) {
	var runs []goldenRun
	var probs []Problem
	record := func(name, solver string, in *Instance, prob Problem) {
		probs = append(probs, prob)
		sol := BranchBound(in, prob)
		set := sol.Set
		if set == nil {
			set = []int{}
		}
		runs = append(runs, goldenRun{
			Case: name, Solver: solver,
			Set: set, Doi: sol.Doi, Cost: sol.Cost, Size: sol.Size, Feasible: sol.Feasible,
			StatesVisited: sol.Stats.StatesVisited,
			Truncated:     sol.Stats.Truncated,
		})
	}
	for _, k := range []int{8, 20, 40, 64, 65, 80} {
		for _, tied := range []bool{false, true} {
			in := goldenInstance(t, k, int64(1000+k), tied)
			in.StateBudget = 1 << 20
			cmax := in.SupremeCost() * 0.4
			if tied {
				cmax = in.SupremeCost() * 0.25
			}
			smin, smax := 5.0, 300.0
			for i, prob := range []Problem{
				Problem1(smin, smax), Problem2(cmax), Problem3(cmax, smin, smax),
				Problem4(0.95), Problem5(0.95, smin, smax), Problem6(smin, smax),
			} {
				record(fmt.Sprintf("k%d/tied=%v", k, tied), fmt.Sprintf("BranchBound/P%d", i+1), in, prob)
			}
		}
	}
	servingInstances(t, 4, []int{20, 10}, func(profile, k int, in *Instance) {
		name := fmt.Sprintf("serving/profile%d/k%d", profile, k)
		sup := in.SupremeCost()
		for _, f := range []float64{0.32, 0.36, 0.40} {
			record(name, fmt.Sprintf("BranchBound/P2/%.2f", f), in, Problem2(f*sup))
		}
		for _, u := range []float64{0, 0.5, 1} {
			cmax, smax := (0.22+0.05*u)*sup, (0.25+0.08*u)*in.BaseSize
			record(name, fmt.Sprintf("BranchBound/P3/%.1f", u), in, Problem3(cmax, 1, smax))
		}
	})
	return runs, probs
}

// TestGoldenSearch is the differential oracle for the search's state
// representation: every answer and every counter must equal, bit for bit,
// what the recorded commit produced. It is also the K > 64 regression test.
func TestGoldenSearch(t *testing.T) {
	checkGolden(t, goldenPath, *updateGolden, goldenRuns(t), func(_ int, got, want goldenRun) bool {
		return reflect.DeepEqual(got, want)
	})
}

// TestGoldenBB pins BranchBound by a rule that lets a tighter cut through
// and nothing else. A run the recorded commit finished must come out equal
// in every field but states_visited, which may only fall, and still
// finished. A run the recorded commit truncated must come out feasible
// whenever the record is, no worse under Problem.better, within the
// budget: the same depth-first order reaches the recorded stopping point
// with no more states counted, holding the same incumbent, so from there
// its answer can only improve. A change that claims speed never rewrites
// the file.
func TestGoldenBB(t *testing.T) {
	got, probs := goldenBBRuns(t)
	fewer, finished := 0, 0
	checkGolden(t, goldenBBPath, *updateGoldenBB, got, func(i int, got, want goldenRun) bool {
		if !want.Truncated {
			states := got.StatesVisited
			got.StatesVisited = want.StatesVisited
			if states < want.StatesVisited {
				fewer++
			}
			return states <= want.StatesVisited && reflect.DeepEqual(got, want)
		}
		if !got.Truncated {
			finished++
		}
		prob := probs[i]
		return got.Case == want.Case && got.Solver == want.Solver && got.StatesVisited <= 1<<20 &&
			(!want.Feasible || got.Feasible && prob.Feasible(got.Doi, got.Cost, got.Size) &&
				!prob.better(want.Doi, want.Cost, got.Doi, got.Cost))
	})
	t.Logf("%d runs: %d finished with fewer states, %d truncated in the record finished", len(got), fewer, finished)
}

// checkGolden compares the runs with the recorded file by match, or
// rewrites it.
func checkGolden(t *testing.T, path string, update bool, got []goldenRun, match func(i int, got, want goldenRun) bool) {
	if update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(got), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRun
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("grid has %d runs, golden file %d", len(got), len(want))
	}
	for i := range want {
		if !match(i, got[i], want[i]) {
			t.Errorf("%s %s:\n got  %+v\n want %+v", want[i].Case, want[i].Solver, got[i], want[i])
		}
	}
}
