package core

import (
	"math/rand"
	"testing"
)

// TestStatsAccountingAllAlgorithms checks every Problem-2 algorithm
// populates the full Stats record: states, peak memory, and — for the
// queue-driven searches — the RQ high-water mark.
func TestStatsAccountingAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randInstance(t, rng, 12)
	cmax := in.SupremeCost() * 0.5
	for _, a := range Algorithms {
		sol := a.Solve(in, cmax)
		st := sol.Stats
		if st.StatesVisited <= 0 {
			t.Errorf("%s: StatesVisited = %d", a.Name, st.StatesVisited)
		}
		if st.PeakMemBytes <= 0 {
			t.Errorf("%s: PeakMemBytes = %d", a.Name, st.PeakMemBytes)
		}
		if st.Truncated {
			t.Errorf("%s: truncated under an ample budget", a.Name)
		}
		if st.MemoHits < 0 || st.QueueHighWater < 0 {
			t.Errorf("%s: negative accounting: %+v", a.Name, st)
		}
		// All but the greedy heuristic drive the paper's RQ deque.
		if a.Name != "D_HeurDoi" && st.QueueHighWater == 0 {
			t.Errorf("%s: queue high-water never recorded", a.Name)
		}
	}
}

// TestMemoHitsCounted verifies the visited-set memo registers re-encounters:
// with equal per-preference parameters, many search orders reach the same
// set, so a run over such an instance must log hits — and the memo-disabled
// run must log none.
func TestMemoHitsCounted(t *testing.T) {
	k := 8
	dois := make([]float64, k)
	costs := make([]float64, k)
	shr := make([]float64, k)
	for i := range dois {
		dois[i] = 0.5
		costs[i] = 10
		shr[i] = 0.5
	}
	in, err := NewInstance(dois, costs, shr, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cmax := in.SupremeCost() * 0.5
	sol := CBoundaries(in, cmax)
	if sol.Stats.MemoHits == 0 {
		t.Errorf("no memo hits on a maximally symmetric instance: %+v", sol.Stats)
	}
	noMemo := *in
	noMemo.DisableMemo = true
	if got := CBoundaries(&noMemo, cmax); got.Stats.MemoHits != 0 {
		t.Errorf("memo disabled but %d hits recorded", got.Stats.MemoHits)
	}
}

// TestTruncatedExactlyWhenBudgetHit: Truncated must be set when a tiny
// StateBudget cuts the search short, and clear when the budget is ample —
// for every algorithm that enumerates states.
func TestTruncatedExactlyWhenBudgetHit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, a := range Algorithms {
		in := randInstance(t, rng, 12)
		cmax := in.SupremeCost() * 0.6

		in.StateBudget = 0 // unlimited
		free := a.Solve(in, cmax)
		if free.Stats.Truncated {
			t.Errorf("%s: truncated without a budget", a.Name)
		}

		in.StateBudget = 2
		tight := a.Solve(in, cmax)
		// The budget is a soft cap checked at round boundaries, so a run
		// may overshoot it — but a search that needed far more states than
		// the budget must come back flagged.
		if free.Stats.StatesVisited > in.StateBudget && !tight.Stats.Truncated {
			t.Errorf("%s: budget hit (%d > %d) but Truncated not set",
				a.Name, free.Stats.StatesVisited, in.StateBudget)
		}
	}
}
