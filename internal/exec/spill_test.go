package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"cqp/internal/blockstore"
	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/workload"
)

// liveHeap reads the bytes that survived the latest GC mark phase —
// reachable state, not garbage awaiting collection, so runs with different
// allocation rates compare fairly.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSpillCutsWorkingSet is the one thing a spill budget is for that the
// golden grid does not check: besides returning the same ranking, the
// budgeted run holds less live memory at its peak. Each sub-query forces a
// full CAST build side (the actor selection pushes down to ACTOR, not
// CAST), so hash-join build tables — budget-governed state — dominate the
// unbounded run while the answer stays small.
//
// The database is a block store, the case a budget exists for: rows decoded
// from pages live only as long as an operator keeps them. Over the
// in-memory backend a build side keeps the table's own rows by reference,
// the two peaks are within GC sampling noise of each other, and the
// resident tables stretch every mark phase so that garbage allocated during
// it swamps the reading.
func TestSpillCutsWorkingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 40000-movie block store")
	}
	st, err := blockstore.Open(t.TempDir(), workload.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(db, workload.DBConfig{Movies: 40000, Seed: 1})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	const nsubs = 8
	var subs []*query.Query
	var dois []float64
	for i := 0; i < nsubs; i++ {
		subs = append(subs, sqlparse.MustParse(db.Schema(), fmt.Sprintf(
			`SELECT title FROM MOVIE, CAST, ACTOR
			 WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor %05d'`, i+1)))
		dois = append(dois, 1-float64(i)/nsubs)
	}

	// The sampler collects back to back, so each reading is the live heap
	// at that instant; the database is resident in both runs and cancels
	// out against the pre-run baseline.
	run := func(ctx context.Context) (res *UnionResult, workingSet uint64, spillRuns int64) {
		runs0, _, _ := iter.SpillStats()
		runtime.GC()
		base := liveHeap()
		done := make(chan struct{})
		peakc := make(chan uint64)
		go func() {
			peak := base
			for {
				select {
				case <-done:
					peakc <- peak
					return
				default:
					runtime.GC()
					if l := liveHeap(); l > peak {
						peak = l
					}
				}
			}
		}()
		res, err := wholePlan(db.Schema(), subs).EvalContext(ctx, db, dois, 1)
		close(done)
		peak := <-peakc
		if err != nil {
			t.Fatal(err)
		}
		runs1, _, _ := iter.SpillStats()
		return res, peak - base, runs1 - runs0
	}

	full, fullWS, fullSpills := run(context.Background())
	const budget = 256 << 10
	tight, tightWS, tightSpills := run(iter.WithBudget(context.Background(),
		iter.Budget{Bytes: budget, Dir: t.TempDir()}))

	if fullSpills != 0 || tightSpills == 0 {
		t.Fatalf("spill runs: unbounded %d (want 0), budgeted %d (want > 0)", fullSpills, tightSpills)
	}
	if len(full.Rows) == 0 || len(full.Rows) != len(tight.Rows) {
		t.Fatalf("rows: unbounded %d, budgeted %d", len(full.Rows), len(tight.Rows))
	}
	for i := range full.Rows {
		if !iter.EqualRows(full.Rows[i].Key, tight.Rows[i].Key) || full.Rows[i].Doi != tight.Rows[i].Doi {
			t.Fatalf("row %d: unbounded %v (doi %g), budgeted %v (doi %g)", i,
				full.Rows[i].Key, full.Rows[i].Doi, tight.Rows[i].Key, tight.Rows[i].Doi)
		}
	}
	t.Logf("peak working set: unbounded %d KiB, budgeted %d KiB (%.2fx)",
		fullWS>>10, tightWS>>10, float64(fullWS)/float64(tightWS))
	if tightWS >= fullWS {
		t.Errorf("a %d-byte budget did not cut the peak working set: %d bytes budgeted, %d unbounded",
			budget, tightWS, fullWS)
	}
}
