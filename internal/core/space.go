package core

import (
	"math"
	"math/bits"
	"sort"
)

// wCap caps the additive log-domain weights used to order doi- and
// size-space neighbors, so must-have preferences (doi = 1) and empty-result
// shrinks (factor 0) stay finite.
const wCap = 700.0

// logWeight maps a multiplicative survival factor f ∈ [0,1] to the additive
// weight −log(f), capped. Larger weight = stronger effect.
func logWeight(f float64) float64 {
	if f <= 0 {
		return wCap
	}
	w := -math.Log(f)
	if w > wCap {
		return wCap
	}
	return w
}

// space is one of the paper's search spaces: positions 0..K−1 over a
// pointer vector, with a per-position weight that is non-increasing in the
// position index (the space's own ordering parameter: cost for the C space,
// doi for the D space). Transitions use the weights only to order
// neighbors; feasibility is checked by the algorithms against the CQP
// constraints, which may concern a different parameter.
//
// A space is built per search and never shared between goroutines, so it
// also carries the search's scratch.
type space struct {
	K      int
	vec    []int     // position -> P index
	w      []float64 // per-position weight, non-increasing
	stride int       // words per node: ⌈K/64⌉, and 1 for the empty space
	keys   []float64 // vertical's sort keys, one per neighbor
	nbr    node      // vertical's neighbor in the making
}

// newSpace is the one place the node width is chosen: K alone picks it.
func newSpace(vec []int) *space {
	k := len(vec)
	s := &space{K: k, vec: vec, w: make([]float64, k),
		stride: max(1, (k+63)/64), keys: make([]float64, 0, k)}
	s.nbr = s.nodeOf()
	return s
}

// costSpace builds the C-based space (Section 5.2.1). CostOrder sorts by
// the strict comparison, so w is exactly non-increasing, which growByCost
// relies on; no NaN cost can break that order, as NewInstance rejects NaN
// and FromSpace's costs are finite block sums.
func (in *Instance) costSpace() *space {
	s := newSpace(in.CostOrder())
	for pos, p := range s.vec {
		s.w[pos] = in.Cost[p]
	}
	return s
}

// doiSpace builds the D-based space (Section 5.2.2). D is the identity, and
// the weights are the log-domain doi contributions −log(1 − doi), which
// order exactly like doi.
func (in *Instance) doiSpace() *space {
	s := newSpace(make([]int, in.K))
	for i := range s.vec {
		s.vec[i] = i
		s.w[i] = logWeight(1 - in.Doi[i])
	}
	return s
}

// nodeOf allocates a node of the space holding the given positions.
func (s *space) nodeOf(positions ...int) node {
	n := make(node, s.stride)
	for _, pos := range positions {
		n.insert(pos)
	}
	return n
}

// newList returns an empty list of the space's nodes.
func (s *space) newList() nodeList { return nodeList{stride: s.stride} }

// toSet maps a node (positions) to sorted P indices.
func (s *space) toSet(n node) []int {
	out := make([]int, 0, n.size())
	for pos := n.next(0); pos >= 0; pos = n.next(pos + 1) {
		out = append(out, s.vec[pos])
	}
	sort.Ints(out)
	return out
}

// The parameter functions below fold over a node's members in ascending
// position order. Floating-point addition and multiplication are not
// associative, so that order is part of their contract: it is what makes
// every comparison, and hence every answer, independent of how a node is
// represented.

// costOf computes cost(Q ∧ state) without materializing the P-index set.
func (s *space) costOf(in *Instance, n node) float64 {
	if n.max() < 0 {
		return in.BaseCost
	}
	c := 0.0
	for i, w := range n {
		for ; w != 0; w &= w - 1 {
			c += in.Cost[s.vec[i<<6+bits.TrailingZeros64(w)]]
		}
	}
	return c
}

// sizeOf computes the estimated size of Q ∧ state.
func (s *space) sizeOf(in *Instance, n node) float64 {
	sz := in.BaseSize
	for i, w := range n {
		for ; w != 0; w &= w - 1 {
			sz *= in.Shrink[s.vec[i<<6+bits.TrailingZeros64(w)]]
		}
	}
	return sz
}

// doiOf computes doi(Q ∧ state).
func (s *space) doiOf(in *Instance, n node) float64 {
	prod := 1.0
	for i, w := range n {
		for ; w != 0; w &= w - 1 {
			prod *= 1 - in.Doi[s.vec[i<<6+bits.TrailingZeros64(w)]]
		}
	}
	return 1 - prod
}

// weight sums the space weights of a node's positions.
func (s *space) weight(n node) float64 {
	t := 0.0
	for i, w := range n {
		for ; w != 0; w &= w - 1 {
			t += s.w[i<<6+bits.TrailingZeros64(w)]
		}
	}
	return t
}

// horizontal is the paper's Horizontal transition, applied in place: extend
// the node with the successor of its largest position. At the edge of the
// space it reports false and leaves the node alone.
func (s *space) horizontal(n node) bool {
	next := n.max() + 1
	if next >= s.K {
		return false
	}
	n.insert(next)
	return true
}

// vertical is the paper's Vertical transition set: every node obtained by
// replacing one position with its successor (when absent), ordered by
// decreasing resulting weight — i.e. preferring the neighbor that gives up
// the least of the space's parameter. Neighbors of equal weight keep their
// generation order, largest replaced position first. The neighbors go into
// the caller's list, which is reused from call to call.
//
// Only neighbors that pass keep are copied, weighed and sorted. keep sees
// each neighbor once, in generation order, as a view it must not retain, and
// must not depend on that order; the result is then the kept subsequence of
// the full transition set, in the same stable order. keep is called, never
// stored: a capturing closure stays on the caller's stack.
func (s *space) vertical(n node, out *nodeList, keep func(node) bool) {
	out.reset()
	keys := s.keys[:0]
	v := s.nbr
	copy(v, n)
	for i := len(n) - 1; i >= 0; i-- {
		// Members whose successor is absent: bit p set, bit p+1 (the low bit
		// of the next word, for p = 63) clear.
		succ := n[i] >> 1
		if i+1 < len(n) {
			succ |= n[i+1] << 63
		}
		for c := n[i] &^ succ; c != 0; {
			b := 63 - bits.LeadingZeros64(c)
			c &^= 1 << b
			p := i<<6 + b
			if p+1 >= s.K {
				continue // the successor is off the edge of the space
			}
			v.remove(p)
			v.insert(p + 1)
			if keep(v) {
				out.push(v)
				keys = append(keys, s.weight(v))
			}
			v.remove(p + 1)
			v.insert(p)
		}
	}
	// Stable insertion sort on the precomputed keys: at most K neighbors.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] > keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
			out.swap(j, j-1)
		}
	}
}

// lastAbsent returns the largest position of the space that is not in n, or
// −1 for the full node: the Horizontal2 neighbor of least resulting weight.
func (s *space) lastAbsent(n node) int {
	for i := len(n) - 1; i >= 0; i-- {
		w := ^n[i]
		if valid := s.K - i<<6; valid < 64 {
			w &= 1<<uint(valid) - 1 // the top word ends at position K−1
		}
		if w != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// horizontal2From walks the paper's Horizontal2 transition set
// (C-MAXBOUNDS: every node obtained by adding one absent position) lazily:
// it returns the first absent position ≥ from, or −1 past the edge of the
// space. Weights are non-increasing in position, so ascending positions are
// the neighbors in decreasing resulting weight.
func (s *space) horizontal2From(n node, from int) int {
	shift := uint(from) & 63
	for i := from >> 6; i < len(n); i++ {
		if w := ^n[i] >> shift << shift; w != 0 {
			if pos := i<<6 + bits.TrailingZeros64(w); pos < s.K {
				return pos
			}
			return -1
		}
		shift = 0
	}
	return -1
}
