package core

import (
	"encoding/binary"
	"sync"
	"time"
)

// Stats instruments one algorithm run with the measurements the paper's
// evaluation reports: execution time (Figure 12), peak memory (Figure 13)
// and the number of states examined.
type Stats struct {
	// Algorithm is the name of the algorithm that produced the solution.
	Algorithm string
	// Duration is the wall-clock optimization time.
	Duration time.Duration
	// StatesVisited counts states whose parameters were evaluated. Growth
	// probes that the cost order decides without a walk (growByCost) are
	// charged as evaluated.
	StatesVisited int
	// PeakMemBytes is the maximum simultaneous footprint of the search's
	// live data structures (queues, boundary lists, visited set), in bytes,
	// under the accounting model of node.memBytes.
	PeakMemBytes int64
	// Truncated reports that the run hit the instance's StateBudget and
	// returned the best solution found up to that point.
	Truncated bool
	// MemoHits counts states the visited-set memo recognized and pruned —
	// the work the paper-faithful (memo-less) search would redo.
	MemoHits int
	// QueueHighWater is the deepest the search queue (the paper's RQ) grew
	// at any point of the run — the live-frontier companion to
	// PeakMemBytes.
	QueueHighWater int
	// Fault records an injected search.expand fault that aborted the run:
	// the search stopped as if truncated, carrying the best solution found
	// so far. Solve surfaces it as an error; direct Problem2Solver callers
	// (benchmarks, experiments) inspect it here.
	Fault error
}

// memTracker accumulates live bytes and records the peak.
type memTracker struct {
	cur, peak int64
}

func (m *memTracker) add(b int64) {
	m.cur += b
	if m.cur > m.peak {
		m.peak = m.cur
	}
}

func (m *memTracker) sub(b int64) { m.cur -= b }

// bitmapMaxK is the largest K whose states are indexed directly: a node of
// K ≤ 24 positions is a number below 2^24, so the visited set is a bitmap of
// 2^K bits — 128 KiB at the serving default K = 20, 2 MiB at the limit,
// always less than the map a budget-sized search grows.
const bitmapMaxK = 24

// bitmapPool holds all-zero bitmaps between searches. Each search takes its
// own, so searches running at once (one per request worker) share nothing.
var bitmapPool sync.Pool // of *[]uint64

// visitedSet is the set of states a search has already expanded, with memory
// accounting. It is exact in every representation: a bit per state where a
// state is a small number, and above that a map keyed by the node's one word
// or by its words' bytes. A disabled set (paper-faithful mode) holds nothing
// and reports nothing as seen. The memory model charges 16 bytes per entry
// whatever the representation (Figure 13 measures the algorithm).
type visitedSet struct {
	bits   []uint64            // K ≤ bitmapMaxK: bit n[0], the first 2^K bits of *pooled
	pooled *[]uint64           // what release hands back to bitmapPool
	lo, hi int                 // range of words of bits that may be non-zero
	word   map[uint64]struct{} // K ≤ 64
	wide   map[string]struct{} // K > 64
	key    []byte              // scratch for wide keys
	n      int                 // states recorded
	st     *Stats
	mem    *memTracker
}

// newVisitedSet is the one place the representation is chosen, from K and
// the instance's memo mode alone. The caller defers release.
func newVisitedSet(in *Instance, sp *space, st *Stats, mem *memTracker) visitedSet {
	v := visitedSet{st: st, mem: mem}
	switch {
	case in.DisableMemo:
	case sp.K <= bitmapMaxK:
		words := max(1, 1<<sp.K>>6)
		v.pooled, _ = bitmapPool.Get().(*[]uint64)
		if v.pooled == nil || len(*v.pooled) < words {
			// A pooled bitmap that is too short is dropped, not grown: the
			// next search of its size allocates 128 bytes, not 2 MiB.
			b := make([]uint64, words)
			v.pooled = &b
		}
		v.bits, v.lo, v.hi = (*v.pooled)[:words], words, -1
	case sp.stride == 1:
		v.word = make(map[uint64]struct{})
	default:
		v.wide = make(map[string]struct{})
	}
	return v
}

// seen reports whether the node was recorded before, recording it if not.
// Re-encounters count as memo hits in the run's Stats.
func (v *visitedSet) seen(n node) bool {
	var dup bool
	switch {
	case v.bits != nil:
		i, bit := int(n[0]>>6), uint64(1)<<(n[0]&63)
		if dup = v.bits[i]&bit != 0; !dup {
			v.bits[i] |= bit
			v.lo, v.hi = min(v.lo, i), max(v.hi, i)
		}
	case v.word != nil:
		if _, dup = v.word[n[0]]; !dup {
			v.word[n[0]] = struct{}{}
		}
	case v.wide != nil:
		v.key = v.key[:0]
		for _, w := range n {
			v.key = binary.LittleEndian.AppendUint64(v.key, w)
		}
		if _, dup = v.wide[string(v.key)]; !dup {
			v.wide[string(v.key)] = struct{}{}
		}
	default:
		return false // disabled, or released
	}
	if dup {
		v.st.MemoHits++
		return true
	}
	v.n++
	v.mem.add(16) // 8-byte key + bucket overhead
	return false
}

// len is the number of states recorded.
func (v *visitedSet) len() int { return v.n }

// release ends the set's use and gives a bitmap back to the pool, zeroed
// over the words the search dirtied only: a search of a dozen states does
// not pay for 128 KiB.
func (v *visitedSet) release() {
	if v.pooled != nil {
		if v.lo <= v.hi {
			clear(v.bits[v.lo : v.hi+1])
		}
		bitmapPool.Put(v.pooled)
	}
	*v = visitedSet{}
}

// nodeDeque is a double-ended queue of nodes with memory accounting: the
// paper's RQ, where Horizontal results enqueue at the tail and Vertical
// results at the head (C-BOUNDARIES' group-by-group discipline). It is a
// two-stack deque: front holds head-side nodes in reverse, back holds
// tail-side nodes in order.
type nodeDeque struct {
	front  nodeList // next head element is the last of front
	back   nodeList // nodes backAt.. of back are tail-side elements in FIFO order
	backAt int
	st     *Stats
	mem    *memTracker
}

func newNodeDeque(sp *space, st *Stats, mem *memTracker) *nodeDeque {
	return &nodeDeque{front: sp.newList(), back: sp.newList(), st: st, mem: mem}
}

func (d *nodeDeque) len() int { return d.front.len() + d.back.len() - d.backAt }

// noteDepth records the queue's high-water mark after a push.
func (d *nodeDeque) noteDepth() {
	if n := d.len(); n > d.st.QueueHighWater {
		d.st.QueueHighWater = n
	}
}

func (d *nodeDeque) pushTail(n node) {
	d.back.push(n)
	d.mem.add(n.memBytes())
	d.noteDepth()
}

func (d *nodeDeque) pushHead(n node) {
	d.front.push(n)
	d.mem.add(n.memBytes())
	d.noteDepth()
}

// popHead removes the head node, copying it into dst.
func (d *nodeDeque) popHead(dst node) {
	if last := d.front.len() - 1; last >= 0 {
		copy(dst, d.front.at(last))
		d.front.truncate(last)
	} else {
		copy(dst, d.back.at(d.backAt))
		d.backAt++
		if d.backAt == d.back.len() {
			d.back.reset()
			d.backAt = 0
		}
	}
	d.mem.sub(dst.memBytes())
}
