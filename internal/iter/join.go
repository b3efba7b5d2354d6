package iter

import (
	"context"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// joinOut is the one output row a join emits into. out names, per output
// position, a column of the concatenation probe[:probeWidth] ++ build; the
// probe's share is written once per probe row, the build's once per match,
// and columns nothing above the join reads are never copied at all.
type joinOut struct {
	row          storage.Row
	probe, build []move
}

// move copies column from of a source row to position to of the output.
type move struct{ to, from int }

func newJoinOut(out []int, probeWidth int) joinOut {
	o := joinOut{row: make(storage.Row, len(out))}
	for to, c := range out {
		if c < probeWidth {
			o.probe = append(o.probe, move{to, c})
		} else {
			o.build = append(o.build, move{to, c - probeWidth})
		}
	}
	return o
}

func (o *joinOut) setProbe(r storage.Row) {
	for _, m := range o.probe {
		o.row[m.to] = r[m.from]
	}
}

func (o *joinOut) emit(build storage.Row) storage.Row {
	for _, m := range o.build {
		o.row[m.to] = build[m.from]
	}
	return o.row
}

// HashJoin equi-joins probe rows against build rows on probe[probeIdx[k]] =
// build[buildIdx[k]], emitting the columns out selects from probe[:probeWidth]
// ++ build (the executor's left-deep layout) into one reused row. The build
// side is drained into a build table on the first Next and the probe side
// streams, so output arrives in probe order, a probe row's matches in build
// order, while the build fits in memory. On no key columns every build row
// matches: the join is the cartesian product (a disconnected query's).
//
// pre, when not nil, is the build table already made: the index of an
// in-memory table on its one build column (storage.Table.Index), whose rows
// the build side would scan. build is then only closed — nothing is drained,
// hashed or held per join, so nothing spills — and the output is the same.
//
// When the build table exceeds the context budget (WithBudget), the join
// switches to Grace mode: build rows are hash-partitioned to spill files,
// the probe side is partitioned the same way, and partitions join
// pairwise — each pass holds only ~1/spillFanout of the build side.
// Output order then follows partition order; callers that need a total
// order sort above the join (the personalized union ranks by doi anyway).
func HashJoin(ctx context.Context, probe, build Iterator, probeIdx, buildIdx []int, probeWidth int, out []int, pre *storage.Index) Iterator {
	it := &hashJoinIter{
		poll: poll{ctx: ctx}, probe: probe, build: build,
		pIdx: probeIdx, bIdx: buildIdx, out: newJoinOut(out, probeWidth),
		budget: BudgetFromContext(ctx), cand: -1,
	}
	if pre != nil {
		it.tab, it.inited = *pre, true
	}
	return it
}

// LeftOuterJoin is HashJoin also emitting a probe row no build row matches,
// once, NULL in the build's columns (in Grace mode too: a partition is whole).
func LeftOuterJoin(ctx context.Context, probe, build Iterator, probeIdx, buildIdx []int, probeWidth int, out []int, pre *storage.Index) Iterator {
	it := HashJoin(ctx, probe, build, probeIdx, buildIdx, probeWidth, out, pre).(*hashJoinIter)
	it.outer = true
	return it
}

type hashJoinIter struct {
	poll
	probe, build Iterator
	pIdx, bIdx   []int
	out          joinOut
	budget       Budget
	outer        bool

	inited bool
	// The build table: rows numbered in arrival order, chained by key hash once
	// they are all in. An INT probe key outside its range (Ranged) matches
	// nothing and is not hashed.
	tab  storage.Index
	kept Slab[value.Value] // copies of build rows the build side would overwrite

	spilled  bool
	buildRun *spillRun
	probeRun *spillRun
	part     int
	pr       *spillReader

	cur     storage.Row // probe row in hand; valid until the next probe pull
	cand    int32       // next build candidate for cur, -1 when exhausted
	unmatch bool        // outer: cur has matched no build row so far
	done    bool
}

// outside reports whether the probe row's key is an INT no build key can equal.
func (it *hashJoinIter) outside(row storage.Row) bool {
	if !it.tab.Ranged {
		return false
	}
	k, v, _ := row[it.pIdx[0]].Peek()
	return k == value.KindInt && (v < it.tab.Lo || v > it.tab.Hi)
}

// init drains the build side, spilling to partitions if it outgrows the
// budget, and in that case also partitions the entire probe side.
func (it *hashJoinIter) init() error {
	it.inited = true
	byRef := retains(it.build)
	var bytes int64
	for !it.spilled {
		if err := it.check(); err != nil {
			return err
		}
		r, ok, err := it.build.Next()
		if err != nil {
			return err
		}
		if !ok {
			it.tab = storage.NewIndex(it.tab.Rows, it.bIdx)
			return nil
		}
		if !byRef {
			r = keep(&it.kept, r)
		}
		it.tab.Rows = append(it.tab.Rows, r)
		if it.budget.Bytes == 0 {
			continue
		}
		if bytes += rowBytes(r); bytes > it.budget.Bytes {
			if err := it.startSpill(); err != nil {
				return err
			}
		}
	}
	// Partition the rest of the build side, and the probe side the same way.
	err := it.buildRun.route(&it.poll, it.build, func(r storage.Row) uint64 { return storage.Hash(r, it.bIdx) })
	if err != nil {
		return err
	}
	if it.probeRun, err = newSpillRun(it.budget.Dir); err != nil {
		return err
	}
	err = it.probeRun.route(&it.poll, it.probe, func(r storage.Row) uint64 { return storage.Hash(r, it.pIdx) })
	if err != nil {
		return err
	}
	if err := it.buildRun.finish(); err != nil {
		return err
	}
	if err := it.probeRun.finish(); err != nil {
		return err
	}
	it.part = -1
	return nil
}

// startSpill moves the build rows held so far into partition files.
func (it *hashJoinIter) startSpill() error {
	run, err := newSpillRun(it.budget.Dir)
	if err != nil {
		return err
	}
	it.buildRun = run
	for _, r := range it.tab.Rows {
		if err := it.buildRun.write(storage.Hash(r, it.bIdx), r); err != nil {
			return err
		}
	}
	it.tab.Rows, it.kept = nil, Slab[value.Value]{}
	it.spilled = true
	return nil
}

func (it *hashJoinIter) equalOn(l, r storage.Row) bool {
	for k := range it.pIdx {
		if l[it.pIdx[k]].Compare(r[it.bIdx[k]]) != 0 {
			return false
		}
	}
	return true
}

func (it *hashJoinIter) Next() (storage.Row, bool, error) {
	if it.done {
		return nil, false, nil
	}
	if !it.inited {
		if err := it.init(); err != nil {
			it.done = true
			return nil, false, err
		}
	}
	for {
		if err := it.check(); err != nil {
			it.done = true
			return nil, false, err
		}
		// Drain the current probe row's candidates. The probe side is not
		// pulled while they last, so cur stays valid throughout.
		for it.cand >= 0 {
			r := it.tab.Rows[it.cand]
			it.cand = it.tab.Chain.Next(it.cand)
			if it.equalOn(it.cur, r) {
				it.unmatch = false
				return it.out.emit(r), true, nil
			}
		}
		if it.unmatch {
			it.unmatch = false
			for _, m := range it.out.build {
				it.out.row[m.to] = value.Null()
			}
			return it.out.row, true, nil
		}
		row, ok, err := it.nextProbe()
		if !ok || err != nil {
			it.done = true
			return nil, false, err
		}
		it.cur, it.unmatch = row, it.outer
		if !it.outside(row) {
			it.cand = it.tab.Chain.First(storage.Hash(row, it.pIdx))
		} else if !it.outer {
			continue
		}
		it.out.setProbe(row)
	}
}

// nextProbe advances the probe side. Once spilled, it streams the probe
// partitions, (re)building the matching build partition's table at each
// partition boundary; rows read back from a spill file are freshly decoded,
// so both sides hold them by reference.
func (it *hashJoinIter) nextProbe() (storage.Row, bool, error) {
	if !it.spilled {
		return it.probe.Next()
	}
	for {
		if it.pr != nil {
			row, ok, err := it.pr.next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				return row, true, nil
			}
		}
		it.part++
		if it.part >= spillFanout {
			return nil, false, nil
		}
		// Load this partition's build side.
		it.tab.Rows = it.tab.Rows[:0]
		br := it.buildRun.reader(it.part)
		for {
			if err := it.check(); err != nil {
				return nil, false, err
			}
			row, ok, err := br.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			it.tab.Rows = append(it.tab.Rows, row)
		}
		it.tab = storage.NewIndex(it.tab.Rows, it.bIdx)
		it.pr = it.probeRun.reader(it.part)
	}
}

func (it *hashJoinIter) Close() error {
	return closeAll(it.probe, it.build, it.buildRun, it.probeRun)
}
