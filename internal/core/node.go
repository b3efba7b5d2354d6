package core

import "math/bits"

// node is a state of a search space: the set of positions into the active
// pointer vector (C, D or S) that the paper writes as the index set R, held
// as a bitset. Bit p%64 of word p/64 is position p, so ascending bit order
// is ascending vector position. Every node of one space has the space's
// stride ⌈K/64⌉ words — a single word for every K up to 64, which covers
// the paper's experiments (K ≤ 40) and the serving default (20).
//
// A node is a view: containers (nodeList, nodeDeque) own flat word storage
// and copy nodes in and out, so clone is copy(dst, src) and no transition
// allocates.
type node []uint64

func (n node) contains(pos int) bool { return n[pos>>6]>>(uint(pos)&63)&1 != 0 }

// insert adds pos to the set, in place.
func (n node) insert(pos int) { n[pos>>6] |= 1 << (uint(pos) & 63) }

// remove drops pos from the set, in place.
func (n node) remove(pos int) { n[pos>>6] &^= 1 << (uint(pos) & 63) }

// size is the cardinality |R|.
func (n node) size() int {
	c := 0
	for _, w := range n {
		c += bits.OnesCount64(w)
	}
	return c
}

// max returns the largest position, or −1 for the empty node.
func (n node) max() int {
	for i := len(n) - 1; i >= 0; i-- {
		if n[i] != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(n[i])
		}
	}
	return -1
}

// next returns the smallest member ≥ from, or −1 if there is none.
// for p := n.next(0); p >= 0; p = n.next(p + 1) walks the set in ascending
// position order.
func (n node) next(from int) int {
	i := from >> 6
	if i >= len(n) {
		return -1
	}
	w := n[i] >> (uint(from) & 63) << (uint(from) & 63)
	for w == 0 {
		if i++; i == len(n) {
			return -1
		}
		w = n[i]
	}
	return i<<6 + bits.TrailingZeros64(w)
}

// prev returns the largest member ≤ from, or −1 if there is none — the
// descending counterpart of next.
func (n node) prev(from int) int {
	if from < 0 {
		return -1
	}
	i := from >> 6
	if i >= len(n) {
		i, from = len(n)-1, 63
	}
	w := n[i] << (63 - uint(from)&63) >> (63 - uint(from)&63)
	for w == 0 {
		if i--; i < 0 {
			return -1
		}
		w = n[i]
	}
	return i<<6 + 63 - bits.LeadingZeros64(w)
}

// memBytes is the node's footprint under the accounting model of the
// paper's memory-requirements measurements (Figure 13): a 24-byte header
// plus 8 bytes per member position. The model is independent of the
// in-memory representation, so measurements stay comparable across it.
func (n node) memBytes() int64 { return 24 + 8*int64(n.size()) }

// equalNode reports set equality.
func equalNode(a, b node) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dominatedBy reports whether a lies on or below b in the vertical order of
// a space: same cardinality and, pairing members in ascending order, every
// position of a is ≥ its partner in b (a is reachable from b through
// Vertical transitions, hence cheaper in the space's parameter).
func dominatedBy(a, b node) bool {
	if a.size() != b.size() {
		return false
	}
	// Strip the lowest member of each in lockstep; equal sizes mean b runs
	// out of members exactly when a does.
	i, j := 0, 0
	wa, wb := a[0], b[0]
	for {
		for wa == 0 {
			if i++; i == len(a) {
				return true
			}
			wa = a[i]
		}
		for wb == 0 {
			j++
			wb = b[j]
		}
		if i<<6+bits.TrailingZeros64(wa) < j<<6+bits.TrailingZeros64(wb) {
			return false
		}
		wa &= wa - 1
		wb &= wb - 1
	}
}

// nodeList is a sequence of nodes of one stride stored as flat words: the
// boundary and solution lists, Vertical's neighbor buffer and the halves of
// the deque. It holds values, so the garbage collector has nothing to scan.
type nodeList struct {
	words  []uint64
	stride int
	n      int // nodes held, len(words)/stride: stored, because len sits in every loop condition
}

func (l *nodeList) len() int { return l.n }

// at returns a view of the i-th node, valid until the list next grows.
func (l *nodeList) at(i int) node { return l.words[i*l.stride : (i+1)*l.stride] }

// push appends a copy of n.
func (l *nodeList) push(n node) {
	l.words = append(l.words, n...)
	l.n++
}

// truncate keeps the first n nodes.
func (l *nodeList) truncate(n int) { l.words, l.n = l.words[:n*l.stride], n }

func (l *nodeList) reset() { l.truncate(0) }

func (l *nodeList) swap(i, j int) {
	a, b := l.at(i), l.at(j)
	for w := range a {
		a[w], b[w] = b[w], a[w]
	}
}

// bySizeDesc returns the indices of the list's nodes ordered by decreasing
// cardinality, stably — a counting sort, since sizes are bounded by k.
func (l *nodeList) bySizeDesc(k int) []int {
	start := make([]int, k+2)
	for i := 0; i < l.len(); i++ {
		start[k-l.at(i).size()+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	order := make([]int, l.len())
	for i := range order {
		g := k - l.at(i).size()
		order[start[g]] = i
		start[g]++
	}
	return order
}
