package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The tests here pin the three equivalences that let a search touch a state
// once: a visited set answers the same whatever holds it, a Vertical that
// filters first yields what filtering afterwards did, and cost-space growth
// decided by one comparison grows — and counts — like the scan.

// TestVisitedSetAgreement drives every representation of the visited set —
// the bitmap up to K = 24, the word map up to 64, the byte-keyed map above —
// against a reference map: same answers, same MemoHits, same memory charge,
// and nothing left behind in a bitmap that went back to the pool.
func TestVisitedSetAgreement(t *testing.T) {
	for _, k := range []int{1, 8, 20, 24, 25, 40, 64, 65} {
		in := widthInstance(t, k)
		sp := in.costSpace()
		rng := rand.New(rand.NewSource(int64(k)))
		all := sp.nodeOf()
		for pos := 0; pos < k; pos++ {
			all.insert(pos)
		}
		stream := []node{sp.nodeOf(), all, sp.nodeOf(k - 1), sp.nodeOf(), all}
		for i := 0; i < 2000; i++ {
			if n := len(stream); i%3 == 0 {
				stream = append(stream, stream[rng.Intn(n)]) // a repeat
			} else {
				stream = append(stream, randomNode(rng, sp.K, rng.Float64()))
			}
		}

		var st Stats
		var mem memTracker
		visited := newVisitedSet(in, sp, &st, &mem)
		if bitmap := visited.bits != nil; bitmap != (k <= 24) {
			t.Fatalf("K=%d: bitmap %v", k, bitmap)
		} else if bitmap && len(visited.bits)*64 != max(64, 1<<k) {
			t.Fatalf("K=%d: bitmap of %d bits", k, len(visited.bits)*64)
		}
		ref, hits := map[string]bool{}, 0
		for i, n := range stream {
			key := fmt.Sprint(positionsOf(n))
			if got := visited.seen(n); got != ref[key] {
				t.Fatalf("K=%d: node %d %s seen = %v, want %v", k, i, key, got, ref[key])
			}
			if ref[key] {
				hits++
			}
			ref[key] = true
		}
		if visited.len() != len(ref) || st.MemoHits != hits || mem.cur != 16*int64(len(ref)) {
			t.Errorf("K=%d: %d states, %d hits, %d bytes; want %d, %d, %d",
				k, visited.len(), st.MemoHits, mem.cur, len(ref), hits, 16*len(ref))
		}

		// Released and taken again, the set has seen nothing — whichever
		// words the search before it dirtied: all of them, the top one only,
		// word 0 only.
		for _, dirty := range [][]node{nil, {all}, {sp.nodeOf()}} {
			for _, n := range dirty {
				visited.seen(n)
			}
			pooled := visited.pooled
			visited.release()
			if visited.seen(all) || visited.len() != 0 {
				t.Errorf("K=%d: a released set still records", k)
			}
			if pooled != nil {
				for i, w := range *pooled {
					if w != 0 {
						t.Fatalf("K=%d: word %d of a released bitmap is %#x", k, i, w)
					}
				}
			}
			visited = newVisitedSet(in, sp, &st, &mem)
			fresh := map[string]bool{}
			for i, n := range stream[:50] {
				key := fmt.Sprint(positionsOf(n))
				if visited.seen(n) != fresh[key] {
					t.Fatalf("K=%d: node %d %s in a set taken after a release: seen = %v", k, i, key, !fresh[key])
				}
				fresh[key] = true
			}
			visited.release()
			visited = newVisitedSet(in, sp, &st, &mem)
		}
		visited.release()
	}

	// One pool serves every K: a search may be handed a longer bitmap than
	// it needs (and uses its first 2^K bits), never a shorter one.
	var st Stats
	var mem memTracker
	for _, k := range []int{24, 10, 24, 10, 24} {
		in := widthInstance(t, k)
		sp := in.costSpace()
		visited := newVisitedSet(in, sp, &st, &mem)
		if len(visited.bits) != 1<<k>>6 {
			t.Fatalf("K=%d: bitmap of %d words", k, len(visited.bits))
		}
		for _, n := range []node{sp.nodeOf(), sp.nodeOf(k - 1), sp.nodeOf(0, k-1), sp.nodeOf(k/2, k-1)} {
			if visited.seen(n) || !visited.seen(n) {
				t.Fatalf("K=%d: node %v through the pool", k, positionsOf(n))
			}
		}
		visited.release()
	}

	// Paper-faithful mode takes no bitmap and records nothing.
	in := widthInstance(t, 20)
	in.DisableMemo = true
	sp := in.costSpace()
	visited := newVisitedSet(in, sp, &st, &mem)
	if visited.pooled != nil || visited.seen(sp.nodeOf(3)) || visited.seen(sp.nodeOf(3)) || visited.len() != 0 {
		t.Error("a disabled visited set holds state")
	}
	visited.release()
}

// TestVisitedPoolConcurrent: searches running at once each hold their own
// bitmap. Eight goroutines each start the five algorithms on goroutines of
// their own, on distinct K = 20 instances; every answer and counter equals
// the same solve run alone. Run it under -race.
func TestVisitedPoolConcurrent(t *testing.T) {
	const workers = 8
	type outcome struct {
		sets  [][]int
		stats []Stats
	}
	ins := make([]*Instance, workers)
	for i := range ins {
		ins[i] = goldenInstance(t, 20, int64(2000+i), i%2 == 1)
		ins[i].StateBudget = 20000 // keeps the exact searches short under -race
	}
	solve := func(i int) outcome {
		out := outcome{make([][]int, len(Algorithms)), make([]Stats, len(Algorithms))}
		cmax := (0.2 + 0.03*float64(i)) * ins[i].SupremeCost()
		var wg sync.WaitGroup
		for j, a := range Algorithms {
			wg.Add(1)
			go func(j int, search Problem2Solver) {
				defer wg.Done()
				sol := search(ins[i], cmax)
				sol.Stats.Duration = 0 // every counter, not the wall clock
				out.sets[j], out.stats[j] = sol.Set, sol.Stats
			}(j, a.Solve)
		}
		wg.Wait()
		return out
	}
	want := make([]outcome, workers)
	for i := range want {
		want[i] = solve(i)
	}
	got := make([]outcome, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got[i] = solve(i)
			}
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("instance %d: concurrent solve\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestVerticalKeep: vertical with a predicate yields exactly the neighbors
// a filter over the whole transition set keeps, in the same order — on the
// tied golden instances, where equal weights leave the order to the stable
// tie-break, at one word and at two.
func TestVerticalKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{20, 80} {
		in := goldenInstance(t, k, int64(1000+k), true)
		for si, sp := range []*space{in.costSpace(), in.doiSpace(), in.sizeSpace()} {
			name := []string{"cost", "doi", "size"}[si]
			full, kept := sp.newList(), sp.newList()
			for trial := 0; trial < 500; trial++ {
				n := randomNode(rng, sp.K, 0.1+0.8*rng.Float64())
				// A random predicate of the neighbor alone: a must-have
				// position or a coin tossed on the neighbor's words.
				seed, salt := rng.Intn(k), rng.Uint64()|1
				keep := func(v node) bool {
					h := salt
					for _, w := range v {
						h = (h ^ w) * 0x9e3779b97f4a7c15
					}
					return v.contains(seed) || h>>62 == 0
				}
				sp.vertical(n, &full, keepAll)
				var want [][]int
				for i := 0; i < full.len(); i++ {
					if v := full.at(i); keep(v) {
						want = append(want, positionsOf(v))
					}
				}
				sp.vertical(n, &kept, keep)
				var got [][]int
				for i := 0; i < kept.len(); i++ {
					got = append(got, positionsOf(kept.at(i)))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("K=%d %s space, node %v:\n got  %v\n want %v", k, name, positionsOf(n), got, want)
				}
			}
		}
	}
}

// TestGrowByCostMatchesScan: on the cost space, growth decided by one
// comparison per step ends on the same node and charges the same
// StatesVisited as greedyGrow's scan — at random bounds and at every bound
// that one absent position meets exactly (the ≤ edge).
func TestGrowByCostMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(in *Instance, sp *space, r node, cmax float64) {
		t.Helper()
		a, b := append(node(nil), r...), append(node(nil), r...)
		var stA, stB Stats
		grewA := growByCost(in, sp, a, sp.costOf(in, r), cmax, &stA)
		grewB := greedyGrow(in, sp, b, -1, cmax, &stB)
		if grewA != grewB || !equalNode(a, b) || stA.StatesVisited != stB.StatesVisited {
			t.Fatalf("K=%d node %v cmax %v: grew %v to %v in %d states, the scan %v to %v in %d",
				sp.K, positionsOf(r), cmax, grewA, positionsOf(a), stA.StatesVisited,
				grewB, positionsOf(b), stB.StatesVisited)
		}
	}
	for _, k := range []int{20, 80} {
		for _, tied := range []bool{false, true} {
			in := goldenInstance(t, k, int64(1000+k), tied)
			sp := in.costSpace()
			for trial := 0; trial < 300; trial++ {
				r := randomNode(rng, sp.K, 0.6*rng.Float64())
				r.insert(rng.Intn(k)) // a search never grows the empty node
				cur := sp.costOf(in, r)
				check(in, sp, r, cur+rng.Float64()*rng.Float64()*in.SupremeCost())
				for p := sp.horizontal2From(r, 0); p >= 0; p = sp.horizontal2From(r, p+1) {
					check(in, sp, r, cur+sp.w[p])
				}
			}
		}
	}
}
