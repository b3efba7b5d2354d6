package core

import (
	"encoding/binary"
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
	// StatesVisited counts states whose parameters were evaluated.
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

// visitedSet is the set of states a search has already expanded, with memory
// accounting. It is exact: a one-word node is its own key, and a wider node
// is keyed by its words' bytes. A disabled set (paper-faithful mode) reports
// nothing as seen.
type visitedSet struct {
	word     map[uint64]struct{} // stride 1
	wide     map[string]struct{} // stride > 1
	key      []byte              // scratch for wide keys
	st       *Stats
	mem      *memTracker
	disabled bool
}

// newVisitedSet builds a visited set honoring the instance's memo mode.
func newVisitedSet(in *Instance, sp *space, st *Stats, mem *memTracker) *visitedSet {
	v := &visitedSet{st: st, mem: mem, disabled: in.DisableMemo}
	if sp.stride == 1 {
		v.word = make(map[uint64]struct{})
	} else {
		v.wide = make(map[string]struct{})
	}
	return v
}

// seen reports whether the node was recorded before, recording it if not.
// Re-encounters count as memo hits in the run's Stats.
func (v *visitedSet) seen(n node) bool {
	if v.disabled {
		return false
	}
	var dup bool
	if len(n) == 1 {
		if _, dup = v.word[n[0]]; !dup {
			v.word[n[0]] = struct{}{}
		}
	} else {
		v.key = v.key[:0]
		for _, w := range n {
			v.key = binary.LittleEndian.AppendUint64(v.key, w)
		}
		if _, dup = v.wide[string(v.key)]; !dup {
			v.wide[string(v.key)] = struct{}{}
		}
	}
	if dup {
		v.st.MemoHits++
		return true
	}
	v.mem.add(16) // 8-byte key + bucket overhead
	return false
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
		d.front.words = d.front.words[:last*d.front.stride]
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
