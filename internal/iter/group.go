package iter

import (
	"context"
	"fmt"
	"math/bits"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// Grouper is the personalized union's GROUP BY operator: it accumulates
// (row, tag) pairs — tag being the index of the sub-query that produced
// the row — and yields each distinct row with the set of tags that matched
// it. Groups live in flat slices indexed by a chain over the 64-bit row
// hash (no per-group allocation, no string keys); a group's tags are a
// ⌈nTags/64⌉-word bitset. When the table outgrows the context budget the
// grouper spills pairs to hash partitions (the tag rides along as one extra
// encoded column) and regroups partition by partition at drain time,
// bounding memory by the largest partition.
type Grouper struct {
	poll
	budget Budget
	words  int // bitset words per group

	idx   chain
	hash  []uint64
	rows  []storage.Row
	tags  []uint64 // group i's bitset is tags[i*words : (i+1)*words]
	bytes int64

	spilled bool
	run     *spillRun
}

// NewGrouper returns an empty grouper for tags in [0, nTags) under ctx's
// budget.
func NewGrouper(ctx context.Context, nTags int) *Grouper {
	return &Grouper{poll: poll{ctx: ctx}, budget: BudgetFromContext(ctx), words: (nTags + 63) / 64, idx: newChain(0)}
}

// Add records that sub-query tag produced row. Duplicate (row, tag) pairs
// collapse. The grouper holds row by reference: the caller must own it
// (the union adds rows of collected sub-query results).
func (g *Grouper) Add(row storage.Row, tag int) error {
	if err := g.check(); err != nil {
		return err
	}
	if g.spilled {
		return g.write(row, tag)
	}
	g.add(row, tag)
	if g.budget.Bytes > 0 && g.bytes > g.budget.Bytes {
		return g.spill()
	}
	return nil
}

// write spills one (row, tag) pair: the tag rides as an extra column.
func (g *Grouper) write(row storage.Row, tag int) error {
	return g.run.write(HashRow(row), 0, append(row[:len(row):len(row)], value.Int(int64(tag))))
}

func (g *Grouper) add(row storage.Row, tag int) {
	h := HashRow(row)
	word, bit := tag/64, uint64(1)<<(tag%64)
	for i := g.idx.first(h); i >= 0; i = g.idx.next[i] {
		if g.hash[i] == h && EqualRows(g.rows[i], row) {
			if w := &g.tags[int(i)*g.words+word]; *w&bit == 0 {
				*w |= bit
				g.bytes += 8
			}
			return
		}
	}
	g.rows = append(g.rows, row)
	g.hash = append(g.hash, h)
	g.idx.push(g.hash)
	g.tags = append(g.tags, make([]uint64, g.words)...)
	g.tags[len(g.tags)-g.words+word] = bit
	g.bytes += rowBytes(row) + 24
}

// each yields the groups held in memory, in first-appearance order.
func (g *Grouper) each(fn func(row storage.Row, tags []uint64) error) error {
	for i, row := range g.rows {
		if err := g.check(); err != nil {
			return err
		}
		if err := fn(row, g.tags[i*g.words:(i+1)*g.words]); err != nil {
			return err
		}
	}
	return nil
}

// spill converts the in-memory table into partitioned (row, tag) frames.
func (g *Grouper) spill() error {
	run, err := newSpillRun(g.budget.Dir)
	if err != nil {
		return err
	}
	g.run = run
	err = g.each(func(row storage.Row, tags []uint64) error {
		for w, word := range tags {
			for ; word != 0; word &= word - 1 {
				if err := g.write(row, w*64+bits.TrailingZeros64(word)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	g.reset()
	g.spilled = true
	return err
}

func (g *Grouper) reset() {
	g.idx, g.hash, g.rows, g.tags = newChain(0), g.hash[:0], g.rows[:0], g.tags[:0]
}

// Each yields every (row, tags) group once; tags is the bitset of the
// sub-queries that produced the row, valid only during the call, while row
// stays valid for as long as the caller holds it. Group order is
// unspecified — callers rank or sort above. Each may be called once.
func (g *Grouper) Each(fn func(row storage.Row, tags []uint64) error) error {
	if !g.spilled {
		return g.each(fn)
	}
	if err := g.run.finish(); err != nil {
		return err
	}
	for p := 0; p < spillFanout; p++ {
		g.reset()
		r := g.run.reader(p)
		for {
			if err := g.check(); err != nil {
				return err
			}
			_, wide, ok, err := r.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if len(wide) == 0 {
				return fmt.Errorf("iter: group spill frame with no tag column")
			}
			g.add(wide[:len(wide)-1], int(wide[len(wide)-1].AsInt()))
		}
		if err := g.each(fn); err != nil {
			return err
		}
	}
	return nil
}

// Close releases spill state.
func (g *Grouper) Close() error { return g.run.Close() }
