package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// figure4Space builds a 4-preference cost space with distinct costs, as in
// Figure 4 / Table 3 of the paper. Costs are assigned so that C is the
// identity: c1 is the most expensive preference.
func figure4Space(t *testing.T) (*Instance, *space) {
	t.Helper()
	in, err := NewInstance(
		[]float64{0.9, 0.8, 0.7, 0.6},
		[]float64{40, 30, 20, 10},
		[]float64{0.9, 0.8, 0.7, 0.6},
		1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return in, in.costSpace()
}

// sizeVector is the paper's S vector (Table 2): P positions ordered by
// non-decreasing shrink, which is non-decreasing size, equal shrinks in P
// order. No solver walks it; the transition tests walk its space.
func sizeVector(in *Instance) []int {
	return rankBy(in.K, func(a, b int) bool { return in.Shrink[a] < in.Shrink[b] })
}

// sizeSpace builds the S-based space (Section 6, Problem 1): positions
// ordered by increasing size(Q ∧ p), i.e. decreasing shrink weight.
func (in *Instance) sizeSpace() *space {
	s := newSpace(sizeVector(in))
	for pos, p := range s.vec {
		s.w[pos] = logWeight(in.Shrink[p])
	}
	return s
}

// nodeOf builds a node just wide enough for the given positions.
func nodeOf(positions ...int) node {
	top := 0
	for _, p := range positions {
		top = max(top, p)
	}
	n := make(node, top/64+1)
	for _, p := range positions {
		n.insert(p)
	}
	return n
}

// positionsOf lists a node's members in ascending order.
func positionsOf(n node) []int {
	out := []int{}
	for p := n.next(0); p >= 0; p = n.next(p + 1) {
		out = append(out, p)
	}
	return out
}

// horizontalOf returns Horizontal(n) as a fresh node, nil at the edge.
func horizontalOf(sp *space, n node) node {
	h := append(node(nil), n...)
	if !sp.horizontal(h) {
		return nil
	}
	return h
}

// keepAll is vertical's predicate for the whole transition set.
func keepAll(node) bool { return true }

// verticalOf returns Vertical(n) as fresh nodes, in the transition's order.
func verticalOf(sp *space, n node) []node {
	vr := sp.newList()
	sp.vertical(n, &vr, keepAll)
	out := make([]node, vr.len())
	for i := range out {
		out[i] = append(node(nil), vr.at(i)...)
	}
	return out
}

// horizontal2Of returns the Horizontal2 neighbors of n, in the order
// horizontal2From yields them.
func horizontal2Of(sp *space, n node) []node {
	var out []node
	for pos := sp.horizontal2From(n, 0); pos >= 0; pos = sp.horizontal2From(n, pos+1) {
		h := append(node(nil), n...)
		h.insert(pos)
		out = append(out, h)
	}
	return out
}

func nodesEqual(a []node, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(positionsOf(a[i]), b[i]) {
			return false
		}
	}
	return true
}

// TestFigure4Transitions reproduces the paper's worked example:
// Horizontal(c1c3) = c1c3c4 and Vertical(c1c3) = {c1c4, c2c3}.
func TestFigure4Transitions(t *testing.T) {
	_, sp := figure4Space(t)
	c1c3 := nodeOf(0, 2)
	h := horizontalOf(sp, c1c3)
	if !equalNode(h, nodeOf(0, 2, 3)) {
		t.Errorf("Horizontal(c1c3) = %v, want c1c3c4", positionsOf(h))
	}
	v := verticalOf(sp, c1c3)
	// Vertical neighbors: {c1,c4} (cost 50) and {c2,c3} (cost 50) — equal
	// cost here, so both orders are valid; check the set.
	if len(v) != 2 {
		t.Fatalf("Vertical(c1c3) = %v", v)
	}
	found := map[string]bool{}
	for _, n := range v {
		if equalNode(n, nodeOf(0, 3)) {
			found["c1c4"] = true
		}
		if equalNode(n, nodeOf(1, 2)) {
			found["c2c3"] = true
		}
	}
	if !found["c1c4"] || !found["c2c3"] {
		t.Errorf("Vertical(c1c3) = %v, want {c1c4, c2c3}", v)
	}
	// Horizontal at the edge of the space.
	if horizontalOf(sp, nodeOf(0, 3)) != nil {
		t.Error("Horizontal(c1c4) must not exist (c4 is last)")
	}
	// Horizontal of the empty node starts the space.
	if h := horizontalOf(sp, nodeOf()); !equalNode(h, nodeOf(0)) {
		t.Errorf("Horizontal({}) = %v", positionsOf(h))
	}
	// Horizontal2(c2) = {c1c2, c2c3, c2c4} in decreasing cost order.
	h2 := horizontal2Of(sp, nodeOf(1))
	if !nodesEqual(h2, [][]int{{0, 1}, {1, 2}, {1, 3}}) {
		t.Errorf("Horizontal2(c2) = %v", h2)
	}
}

// TestTable4Directions verifies the documented monotone effects of
// cost-space transitions: Horizontal increases cost and doi; Vertical
// decreases cost (Table 4).
func TestTable4Directions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, 8)
		sp := in.costSpace()
		n := randomNode(rng, sp.K, 1.0/3)
		if n.size() == 0 {
			continue
		}
		c0 := sp.costOf(in, n)
		d0 := sp.doiOf(in, n)
		if h := horizontalOf(sp, n); h != nil {
			if sp.costOf(in, h) < c0-1e-9 {
				t.Fatalf("Horizontal decreased cost: %v -> %v", n, h)
			}
			if sp.doiOf(in, h) < d0-1e-12 {
				t.Fatalf("Horizontal decreased doi: %v -> %v", n, h)
			}
		}
		for _, v := range verticalOf(sp, n) {
			if sp.costOf(in, v) > c0+1e-9 {
				t.Fatalf("Vertical increased cost: %v -> %v", n, v)
			}
		}
	}
}

// TestTable5Directions verifies doi-space directions: Horizontal increases
// doi and cost; Vertical decreases doi (cost is unknown — not checked).
func TestTable5Directions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		in := randInstance(t, rng, 8)
		sp := in.doiSpace()
		n := randomNode(rng, sp.K, 1.0/3)
		if n.size() == 0 {
			continue
		}
		c0 := sp.costOf(in, n)
		d0 := sp.doiOf(in, n)
		if h := horizontalOf(sp, n); h != nil {
			if sp.doiOf(in, h) < d0-1e-12 {
				t.Fatalf("Horizontal decreased doi")
			}
			if sp.costOf(in, h) < c0-1e-9 {
				t.Fatalf("Horizontal decreased cost")
			}
		}
		for _, v := range verticalOf(sp, n) {
			if sp.doiOf(in, v) > d0+1e-12 {
				t.Fatalf("doi-space Vertical increased doi: %v -> %v", n, v)
			}
		}
	}
}

// TestProposition1 checks that every transition destination is a valid
// state: sorted, duplicate-free, within the space.
func TestProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		in := randInstance(t, rng, 10)
		for _, sp := range []*space{in.costSpace(), in.doiSpace(), in.sizeSpace()} {
			n := randomNode(rng, sp.K, 1.0/3)
			var dests []node
			if h := horizontalOf(sp, n); h != nil {
				dests = append(dests, h)
			}
			dests = append(dests, verticalOf(sp, n)...)
			dests = append(dests, horizontal2Of(sp, n)...)
			for _, d := range dests {
				checkValidNode(t, d, sp)
			}
		}
	}
}

// checkValidNode: a destination keeps the source's width and has no member
// outside the space (a bitset cannot hold duplicates or lose its order).
func checkValidNode(t *testing.T, n node, sp *space) {
	t.Helper()
	if len(n) != sp.stride {
		t.Fatalf("node of %d words in a space of stride %d", len(n), sp.stride)
	}
	if top := n.max(); top >= sp.K {
		t.Fatalf("position %d out of range in %v", top, positionsOf(n))
	}
}

// randomNode draws a node over k positions, each present with probability p.
func randomNode(rng *rand.Rand, k int, p float64) node {
	n := make(node, max(1, (k+63)/64))
	for i := 0; i < k; i++ {
		if rng.Float64() < p {
			n.insert(i)
		}
	}
	return n
}

func TestNodeOps(t *testing.T) {
	n := nodeOf(1, 4, 7)
	if !n.contains(4) || n.contains(5) {
		t.Error("contains")
	}
	with := func(pos int) node {
		c := append(node(nil), n...)
		c.insert(pos)
		return c
	}
	if got := with(5); !equalNode(got, nodeOf(1, 4, 5, 7)) {
		t.Errorf("insert = %v", positionsOf(got))
	}
	if got := with(0); !equalNode(got, nodeOf(0, 1, 4, 7)) {
		t.Errorf("insert head = %v", positionsOf(got))
	}
	if got := with(9); !equalNode(got, nodeOf(1, 4, 7, 9)) {
		t.Errorf("insert tail = %v", positionsOf(got))
	}
	replace := func(old, pos int) node {
		c := with(pos)
		c.remove(old)
		return c
	}
	if got := replace(4, 5); !equalNode(got, nodeOf(1, 5, 7)) {
		t.Errorf("replace = %v", positionsOf(got))
	}
	if got := replace(1, 6); !equalNode(got, nodeOf(4, 6, 7)) {
		t.Errorf("replace across members = %v", positionsOf(got))
	}
	if c := append(node(nil), n...); !equalNode(c, n) {
		t.Error("clone")
	}
	if n.size() != 3 || n.max() != 7 || nodeOf().max() != -1 {
		t.Error("size/max")
	}
	if n.next(2) != 4 || n.next(8) != -1 || n.prev(6) != 4 || n.prev(0) != -1 {
		t.Error("next/prev")
	}
	if n.memBytes() != 24+8*3 {
		t.Errorf("memBytes = %d", n.memBytes())
	}
	if equalNode(n, nodeOf(1, 4)) || equalNode(n, nodeOf(1, 4, 8)) {
		t.Error("distinct nodes compare equal")
	}
	if !dominatedBy(nodeOf(2, 5), nodeOf(1, 4)) || dominatedBy(nodeOf(0, 5), nodeOf(1, 4)) {
		t.Error("dominatedBy")
	}
	if dominatedBy(nodeOf(1), nodeOf(1, 2)) {
		t.Error("dominatedBy must require equal cardinality")
	}
}

func TestDequeOrdering(t *testing.T) {
	var mem memTracker
	var st Stats
	_, sp := figure4Space(t)
	d := newNodeDeque(sp, &st, &mem)
	d.pushTail(nodeOf(1))
	d.pushTail(nodeOf(2))
	d.pushHead(nodeOf(0))
	if d.len() != 3 {
		t.Fatalf("len = %d", d.len())
	}
	want := []int{0, 1, 2}
	for _, w := range want {
		got := nodeOf()
		if d.popHead(got); !equalNode(got, nodeOf(w)) {
			t.Fatalf("pop = %v, want %d", positionsOf(got), w)
		}
	}
	if d.len() != 0 {
		t.Error("not empty")
	}
	if mem.cur != 0 || mem.peak <= 0 {
		t.Errorf("mem accounting cur=%d peak=%d", mem.cur, mem.peak)
	}
}

// widthInstance builds a K-preference instance with distinct, decreasing
// parameters, so every vector is the identity.
func widthInstance(t *testing.T, k int) *Instance {
	t.Helper()
	dois := make([]float64, k)
	costs := make([]float64, k)
	shrinks := make([]float64, k)
	for i := range dois {
		dois[i] = 0.9 - 0.8*float64(i)/float64(k+1)
		costs[i] = float64(2*k - i)
		shrinks[i] = 0.5 + 0.4*float64(i)/float64(k+1)
	}
	in, err := NewInstance(dois, costs, shrinks, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestNodeWidths walks the transitions along the edges the bitset
// representation creates: the empty space, the last bit of a word, the
// first bit of the next, and positions at or past K.
func TestNodeWidths(t *testing.T) {
	for _, k := range []int{0, 1, 63, 64, 65, 128} {
		in := widthInstance(t, k)
		sp := in.costSpace()
		if want := max(1, (k+63)/64); sp.stride != want {
			t.Fatalf("K=%d: stride %d, want %d", k, sp.stride, want)
		}
		all := make([]int, k)
		for i := range all {
			all[i] = i
		}
		full := sp.nodeOf(all...)

		// Horizontal: from the empty node, across a word boundary, and
		// off the edge of the space.
		if h := horizontalOf(sp, sp.nodeOf()); (h != nil) != (k > 0) {
			t.Errorf("K=%d: Horizontal({}) = %v", k, h)
		}
		if k > 0 {
			if horizontalOf(sp, sp.nodeOf(k-1)) != nil || horizontalOf(sp, full) != nil {
				t.Errorf("K=%d: Horizontal past the last position", k)
			}
		}
		if k > 1 {
			if h := horizontalOf(sp, sp.nodeOf(0, k-2)); !equalNode(h, sp.nodeOf(0, k-2, k-1)) {
				t.Errorf("K=%d: Horizontal onto the top position = %v", k, positionsOf(h))
			}
		}

		// Vertical: the successor is the top position of the space (kept),
		// at or past K (dropped), or already a member (dropped).
		if v := verticalOf(sp, full); len(v) != 0 {
			t.Errorf("K=%d: Vertical(full) = %d neighbors", k, len(v))
		}
		if k > 0 {
			if v := verticalOf(sp, sp.nodeOf(k-1)); len(v) != 0 {
				t.Errorf("K=%d: Vertical({K-1}) stepped off the space", k)
			}
		}
		if k > 2 {
			// {0, K-2} → {0, K-1} and {1, K-2}; {K-3, K-2} → {K-3, K-1} only.
			v := verticalOf(sp, sp.nodeOf(0, k-2))
			if !nodesEqual(v, [][]int{{0, k - 1}, {1, k - 2}}) && !nodesEqual(v, [][]int{{1, k - 2}, {0, k - 1}}) {
				t.Errorf("K=%d: Vertical({0,K-2}) wrong", k)
			}
			if v := verticalOf(sp, sp.nodeOf(k-3, k-2)); !nodesEqual(v, [][]int{{k - 3, k - 1}}) {
				t.Errorf("K=%d: Vertical({K-3,K-2}) wrong", k)
			}
			for _, n := range v {
				checkValidNode(t, n, sp)
			}
		}

		// Horizontal2: nothing to add to a full node; every position to add
		// to the empty one, in order.
		if pos := sp.horizontal2From(full, 0); pos != -1 {
			t.Errorf("K=%d: Horizontal2(full) offers %d", k, pos)
		}
		if got := horizontal2Of(sp, sp.nodeOf()); len(got) != k {
			t.Errorf("K=%d: Horizontal2({}) has %d neighbors", k, len(got))
		}
		if k > 1 {
			gap := append(node(nil), full...)
			gap.remove(k - 1)
			if sp.horizontal2From(gap, 0) != k-1 || sp.horizontal2From(gap, k) != -1 {
				t.Errorf("K=%d: Horizontal2 misses the top position", k)
			}
		}

		// D-HEURDOI's descent drops the largest member again and again:
		// what is left is the prefix r[:cut], what was dropped is r[cut].
		members := positionsOf(full)
		trunc := append(node(nil), full...)
		for cut := len(members) - 1; cut >= 0; cut-- {
			dropped := trunc.max()
			trunc.remove(dropped)
			if dropped != members[cut] || !reflect.DeepEqual(positionsOf(trunc), members[:cut]) {
				t.Fatalf("K=%d: truncation at %d dropped %d, left %v", k, cut, dropped, positionsOf(trunc))
			}
		}

		// The visited set is exact: nodes that differ in any one position,
		// in any word, are different states.
		var st Stats
		var mem memTracker
		visited := newVisitedSet(in, sp, &st, &mem)
		for pos := 0; pos < k; pos++ {
			if visited.seen(sp.nodeOf(pos)) || (pos > 0 && visited.seen(sp.nodeOf(0, pos))) {
				t.Fatalf("K=%d: a fresh node at position %d was reported seen", k, pos)
			}
		}
		for pos := 0; pos < k; pos++ {
			if !visited.seen(sp.nodeOf(pos)) {
				t.Fatalf("K=%d: node {%d} forgotten", k, pos)
			}
		}
		if want := max(0, 2*k-1); visited.len() != want || st.MemoHits != k {
			t.Errorf("K=%d: %d states recorded, %d hits; want %d and %d",
				k, visited.len(), st.MemoHits, want, k)
		}
		visited.release()

		// Every algorithm solves at this width, within the bound.
		in.StateBudget = 5000
		cmax := 0.3 * in.SupremeCost()
		for _, a := range Algorithms {
			sol := a.Solve(in, cmax)
			if !sol.Feasible || sol.Cost > cmax && len(sol.Set) > 0 {
				t.Errorf("K=%d %s: %v", k, a.Name, sol)
			}
			if k > 2 && len(sol.Set) == 0 {
				t.Errorf("K=%d %s: no preference selected under a loose bound", k, a.Name)
			}
		}
	}
}
