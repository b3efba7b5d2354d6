package prefspace

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"cqp/internal/prefs"
	"cqp/internal/workload"
)

// workloadEnv builds a workload-scale environment: with its generated
// profiles an extraction at K = 20 pops through join paths and dozens of
// candidate selections.
func workloadEnv() *workload.Env {
	return workload.NewEnv(workload.DBConfig{Movies: 2000, Seed: 9}, 1)
}

// TestBuildContextCancelled: a dead context aborts extraction with the
// context's error, before anything is estimated.
func TestBuildContextCancelled(t *testing.T) {
	env := workloadEnv()
	profile := workload.GenerateProfile(workload.ProfileConfig{Seed: 11})
	q := workload.Queries(1, 7)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, q, profile, env.Est, Options{MaxK: 20}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if hits, misses := env.Est.MemoCounts(); hits+misses != 0 {
		t.Errorf("the cancelled build looked up %d estimates", hits+misses)
	}
}

// TestBuildAllocs bounds what a K = 20 extraction allocates once the
// estimator's memo is warm — the serving path's build: the space, its P,
// the queue, and the blocks of the path slab and the text arena, six in
// all, under a bound of half as much again. Nothing per candidate or per
// preference: no boxed queue entry, no copied atom slice, no Path or
// condition text of its own.
func TestBuildAllocs(t *testing.T) {
	env := workloadEnv()
	q := workload.Queries(1, 7)[0]
	generated := workload.GenerateProfile(workload.ProfileConfig{Seed: 11})
	profile, err := prefs.ParseProfile(generated.String()) // as the server stores it
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []Options{{MaxK: 20}, {MaxK: 20, CostMax: 800}} {
		build := func() {
			sp, err := Build(q, profile, env.Est, opt)
			if err != nil || sp.K != 20 {
				t.Fatalf("K = %d, err = %v", sp.K, err)
			}
		}
		build() // fills the memo
		n := testing.AllocsPerRun(100, build)
		if n > 9 {
			t.Errorf("a memo-warm K = 20 build with %+v allocates %.0f times, want ≤ 9", opt, n)
		}
	}
}

// TestStringsOneBlock: a response's K preferences are rendered into one
// buffer — one allocation beside the slice of their headers — each text as
// Implicit.String renders it, each directly after the one before.
func TestStringsOneBlock(t *testing.T) {
	env := workloadEnv()
	q := workload.Queries(1, 7)[0]
	profile := workload.GenerateProfile(workload.ProfileConfig{Seed: 11})
	sp, err := Build(q, profile, env.Est, Options{MaxK: 20})
	if err != nil || sp.K != 20 {
		t.Fatalf("K = %d, err = %v", sp.K, err)
	}
	set := []int{19, 0, 7, 3, 12, 5, 1, 2, 4, 6, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18}
	got := sp.Strings(set)
	for k, i := range set {
		if want := sp.P[i].Imp.String(); got[k] != want {
			t.Fatalf("text %d = %q, want %q", k, got[k], want)
		}
		if k > 0 && unsafe.Pointer(unsafe.StringData(got[k])) != unsafe.Add(unsafe.Pointer(unsafe.StringData(got[k-1])), len(got[k-1])) {
			t.Fatalf("text %d does not follow text %d in one block", k, k-1)
		}
	}
	dst := make([]string, 0, len(set))
	at := func(k int) prefs.Implicit { return sp.P[set[k]].Imp }
	if n := testing.AllocsPerRun(100, func() { dst = prefs.AppendStrings(dst[:0], len(set), at) }); n != 1 {
		t.Errorf("rendering K = %d preferences allocates %.0f times, want 1", len(set), n)
	}
}

// TestCandQueueOrder: the queue pops by doi descending and, among equal
// dois, in push order — whatever the pushes and pops in between.
func TestCandQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q candQueue
	var ref []candidate // what is queued, best first
	pop := func() {
		got := q.pop()
		if got.doi != ref[0].doi || got.seq != ref[0].seq {
			t.Fatalf("popped doi %g seq %d, want doi %g seq %d", got.doi, got.seq, ref[0].doi, ref[0].seq)
		}
		ref = ref[1:]
	}
	for i := 0; i < 2000; i++ {
		if len(ref) > 0 && rng.Intn(3) == 0 {
			pop()
			continue
		}
		// A few distinct dois, so most comparisons are ties.
		c := candidate{doi: float64(rng.Intn(6)) / 8, seq: q.pushed, sel: -1}
		q.push(c)
		ref = append(ref, c)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].doi > ref[j].doi })
	}
	for len(ref) > 0 {
		pop()
	}
	if len(q.h) != 0 {
		t.Errorf("%d candidates left in the queue", len(q.h))
	}
}
