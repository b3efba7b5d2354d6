package iter

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// Grouper is a key → tag-set relation: it accumulates (row, tags) pairs and
// yields each distinct row once with the union of the tags added under it. It
// is the personalized union's GROUP BY — tag i being sub-query i — the base
// cache's key set, where the row is a join key and a tag says which reducer
// produced it (probed in place with Lookup), and with no tags at all
// Distinct. The rows are a RowSet (its
// own copies, so callers may add transient rows), their tags ⌈nTags/64⌉-word
// bitsets in one flat slice. When the table outgrows the context budget the grouper
// spills its groups to hash partitions as frames, and regroups partition by
// partition at drain time, bounding memory by the largest partition.
//
// The table is recycled: Close hands it to the next grouper, so nothing a
// grouper yields — row or tags — may be held past the call that yielded it,
// nor the tags Lookup returns past the next Add or Close.
type Grouper struct {
	poll
	budget Budget
	words  int // bitset words per group

	*groupTable
	one  []uint64    // scratch mask: Add's one bit, a loaded frame's words
	wide storage.Row // the frame being written or emitted

	spilled bool
	run     *spillRun
	part    int // partition being drained, once spilled
	at      int // next group of the table in memory to yield
}

// groupTable is a grouper's memory: chain heads and links, hashes, row headers,
// slab chunks and tag words. It outlives the grouper in tablePool, emptied.
type groupTable struct {
	set  RowSet
	tags []uint64 // row i's bitset is tags[i*words : (i+1)*words]
}

// tablePool holds empty tables between groupers. Each grouper takes its own,
// so unions running at once (one per request worker) share nothing.
var tablePool sync.Pool // of *groupTable

// NewGrouper returns an empty grouper for tags in [0, nTags) under ctx's budget.
func NewGrouper(ctx context.Context, nTags int) *Grouper {
	tab, _ := tablePool.Get().(*groupTable)
	if tab == nil {
		tab = &groupTable{set: RowSet{idx: storage.NewChain(0)}}
	}
	words := (nTags + 63) / 64
	return &Grouper{poll: poll{ctx: ctx}, budget: BudgetFromContext(ctx), words: words,
		groupTable: tab, one: make([]uint64, words), part: -1}
}

// Add records row under the one tag.
func (g *Grouper) Add(row storage.Row, tag int) error {
	g.one[tag/64] = 1 << (tag % 64)
	err := g.AddMask(row, g.one)
	g.one[tag/64] = 0
	return err
}

// AddMask records row under every tag set in mask (one word per 64 tags).
// Tags already recorded for the row collapse.
func (g *Grouper) AddMask(row storage.Row, mask []uint64) error {
	if err := g.check(); err != nil {
		return err
	}
	if g.spilled {
		return g.run.write(HashRow(row), g.frame(row, mask))
	}
	g.add(row, mask)
	if g.budget.Bytes > 0 && g.set.Bytes()+int64(8*len(g.tags)) > g.budget.Bytes {
		return g.spill()
	}
	return nil
}

// frame lays a group out as its row followed by its tag words, one INT column
// per word — what a spill frame holds and what Next emits.
func (g *Grouper) frame(row storage.Row, tags []uint64) storage.Row {
	g.wide = append(g.wide[:0], row...)
	for _, w := range tags {
		g.wide = append(g.wide, value.Int(int64(w)))
	}
	return g.wide
}

func (g *Grouper) add(row storage.Row, mask []uint64) {
	i, added := g.set.add(row)
	if added {
		g.tags = append(g.tags, mask...)
		return
	}
	for w, m := range mask {
		g.tags[i*g.words+w] |= m
	}
}

// spill converts the in-memory table into partitioned frames.
func (g *Grouper) spill() error {
	run, err := newSpillRun(g.budget.Dir)
	if err != nil {
		return err
	}
	g.run, g.spilled = run, true
	for i, row := range g.set.Rows() {
		if err := g.run.write(HashRow(row), g.frame(row, g.tags[i*g.words:(i+1)*g.words])); err != nil {
			return err
		}
	}
	g.reset()
	return nil
}

// reset empties the table in memory.
func (g *Grouper) reset() {
	g.set.reset()
	g.tags, g.at = g.tags[:0], 0
}

// next yields the groups one at a time: the table in memory, or once spilled
// each partition's regrouped frames in turn.
func (g *Grouper) next() (storage.Row, []uint64, bool, error) {
	for {
		if err := g.check(); err != nil {
			return nil, nil, false, err
		}
		if rows := g.set.Rows(); g.at < len(rows) {
			g.at++
			return rows[g.at-1], g.tags[(g.at-1)*g.words : g.at*g.words], true, nil
		}
		if !g.spilled || g.part+1 >= spillFanout {
			return nil, nil, false, nil
		}
		if g.part < 0 {
			if err := g.run.finish(); err != nil {
				return nil, nil, false, err
			}
		}
		g.part++
		if err := g.load(g.run.reader(g.part)); err != nil {
			return nil, nil, false, err
		}
	}
}

// load regroups one partition's frames into the (emptied) table in memory.
func (g *Grouper) load(r *spillReader) error {
	g.reset()
	for {
		if err := g.check(); err != nil {
			return err
		}
		wide, ok, err := r.next()
		if !ok || err != nil {
			return err
		}
		n := len(wide) - g.words
		if n < 0 {
			return fmt.Errorf("%w: group frame of %d columns, want %d tag words", ErrSpill, len(wide), g.words)
		}
		for w, v := range wide[n:] {
			g.one[w] = uint64(v.AsInt())
		}
		g.add(wide[:n], g.one)
		clear(g.one)
	}
}

// Each yields every (row, tags) group once; tags is the bitset of the tags
// added under the row, and both are the table's, valid only during the call:
// a caller that keeps a row copies it. Group order is unspecified — callers
// rank or sort above. A grouper drains once, through Each or Next.
func (g *Grouper) Each(fn func(row storage.Row, tags []uint64) error) error {
	for {
		row, tags, ok, err := g.next()
		if !ok || err != nil {
			return err
		}
		if err := fn(row, tags); err != nil {
			return err
		}
	}
}

// Next makes a filled grouper an Iterator over its groups, each laid out as
// a frame.
func (g *Grouper) Next() (storage.Row, bool, error) {
	row, tags, ok, err := g.next()
	if !ok || err != nil {
		return nil, false, err
	}
	return g.frame(row, tags), true, nil
}

// Spilled reports whether the grouper's groups went to spill partitions: it
// is then drained through Each or Next only, never probed with Lookup.
func (g *Grouper) Spilled() bool { return g.spilled }

// Lookup probes a grouper that has not spilled with the key columns of a row:
// it returns the tags of the group whose row equals probe at key, or nil if
// there is none — the tag words a LeftOuterJoin on those columns would emit
// for probe, read where they lie, valid until the next Add. Key columns hash
// as their own row would (storage.Hash, which folds like HashRow) and compare
// with Compare, as the join's do. Compare is not transitive across INT and
// FLOAT above 2^53, so a FLOAT key can equal two INT groups; their tags are
// then ORed into a copy, as the join would emit one row for each.
func (g *Grouper) Lookup(probe storage.Row, key []int) []uint64 {
	h := storage.Hash(probe, key)
	var tags []uint64
	for i := g.set.idx.First(h); i >= 0; i = g.set.idx.Next(i) {
		if g.set.hash[i] != h || !equalAt(probe, key, g.set.rows[i]) {
			continue
		}
		words := g.tags[int(i)*g.words : (int(i)+1)*g.words]
		if tags == nil {
			tags = words
			continue
		}
		tags = slices.Clone(tags)
		for w, m := range words {
			tags[w] |= m
		}
	}
	return tags
}

// equalAt reports whether probe's key columns equal row, column by column.
func equalAt(probe storage.Row, key []int, row storage.Row) bool {
	for k, c := range key {
		if probe[c].Compare(row[k]) != 0 {
			return false
		}
	}
	return true
}

// Close releases spill state and gives the table back, emptied — unless the
// grouper spilled: a table a budget cut short is left to the collector.
func (g *Grouper) Close() error {
	if tab := g.groupTable; tab != nil && !g.spilled {
		g.reset()
		tablePool.Put(tab)
	}
	g.groupTable = nil
	return g.run.Close()
}
