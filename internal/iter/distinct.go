package iter

import (
	"context"

	"cqp/internal/storage"
)

// markers for distinct spill frames: a row the operator already emitted
// downstream (it must suppress later duplicates but never re-emit) versus
// a row still awaiting its verdict.
const (
	markEmitted byte = 1
	markPending byte = 0
)

// Distinct emits each distinct row once, in first-appearance order while
// the seen-set fits the context budget. If the set outgrows the budget,
// the operator spills: every already-emitted row goes to its hash
// partition flagged markEmitted, the rest of the input streams to
// partitions flagged markPending, and partitions then resolve
// independently — each rebuilds only its own slice of the seen-set, so
// memory is bounded by the largest partition, not the input. The rows it
// emits are its set's own copies, so they may be retained.
func Distinct(ctx context.Context, src Iterator) Iterator {
	return &distinctIter{poll: poll{ctx: ctx}, src: src, budget: BudgetFromContext(ctx), set: NewRowSet()}
}

type distinctIter struct {
	poll
	src    Iterator
	budget Budget
	set    *RowSet

	spilled bool
	run     *spillRun
	part    int
	pr      *spillReader

	done bool
}

func (it *distinctIter) Next() (storage.Row, bool, error) {
	if it.done {
		return nil, false, nil
	}
	row, ok, err := it.next()
	if err != nil || !ok {
		it.done = true
		return nil, false, err
	}
	return row, true, nil
}

func (it *distinctIter) next() (storage.Row, bool, error) {
	// Streaming mode: emit first-seen rows as they arrive.
	for !it.spilled {
		if err := it.check(); err != nil {
			return nil, false, err
		}
		r, ok, err := it.src.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		i, added := it.set.add(r)
		if !added {
			continue
		}
		// From here on the row is the set's copy: spill drains src, which
		// overwrites r.
		r = it.set.Rows()[i]
		if it.budget.Bytes > 0 && it.set.Bytes() > it.budget.Bytes {
			// r itself is in the set, hence spilled as markEmitted — but the
			// caller has not seen it yet. It is emitted below; the mark keeps
			// the partitions from emitting it again.
			if err := it.spill(); err != nil {
				return nil, false, err
			}
		}
		return r, true, nil
	}
	// Partition drain mode.
	for {
		if it.pr != nil {
			for {
				if err := it.check(); err != nil {
					return nil, false, err
				}
				marker, row, ok, err := it.pr.next()
				if err != nil {
					return nil, false, err
				}
				if !ok {
					break
				}
				if marker == markEmitted {
					it.set.Add(row)
					continue
				}
				if it.set.Add(row) {
					return row, true, nil
				}
			}
		}
		it.part++
		if it.part >= spillFanout {
			return nil, false, nil
		}
		it.set = NewRowSet()
		it.pr = it.run.reader(it.part)
	}
}

// spill flushes the seen-set (all already emitted) to partitions and
// routes the rest of the input after it, then readies partition drain.
func (it *distinctIter) spill() error {
	run, err := newSpillRun(it.budget.Dir)
	if err != nil {
		return err
	}
	it.run = run
	for _, r := range it.set.Rows() {
		if err := it.run.write(HashRow(r), markEmitted, r); err != nil {
			return err
		}
	}
	it.set = nil
	if err := it.run.route(&it.poll, it.src, markPending, HashRow); err != nil {
		return err
	}
	if err := it.run.finish(); err != nil {
		return err
	}
	it.spilled = true
	it.part = -1
	it.pr = nil
	return nil
}

func (it *distinctIter) retains() bool { return true }

func (it *distinctIter) Close() error { return closeAll(it.src, it.run) }
