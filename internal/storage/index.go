package storage

import (
	"math"
	"math/bits"

	"cqp/internal/value"
)

// Hash hashes the row's values at key — the one join, grouping and index key
// hash. Values that are Equal hash identically. Spill partitions are numbered
// by it, so its values are part of what a spilled plan emits, and fixed.
func Hash(r Row, key []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, i := range key {
		h = (h ^ r[i].Hash()) * 1099511628211
	}
	return h
}

// Chain is the one hash index of the tree: slot heads over a power-of-two
// array plus one link per entry, so an entry costs four bytes and no
// allocation of its own. Entries are the caller's row numbers; the caller
// compares rows, the chain only narrows the candidates. A table's column
// index, a join's build table and a row set are chains.
type Chain struct {
	heads []int32 // slot → first entry, -1 when empty
	next  []int32 // entry → the next entry in the same slot, or -1
	shift uint8   // 64 − log2(len(heads))
}

// NewChain returns an empty chain with room for n entries before it regrows.
func NewChain(n int) Chain {
	slots := 16
	for slots < n {
		slots *= 2
	}
	c := Chain{next: make([]int32, 0, n)}
	c.resize(slots)
	return c
}

func (c *Chain) resize(slots int) {
	c.heads = make([]int32, slots)
	for i := range c.heads {
		c.heads[i] = -1
	}
	c.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
}

// Reset unlinks every entry, keeping the slots.
func (c *Chain) Reset() {
	for i := range c.heads {
		c.heads[i] = -1
	}
	c.next = c.next[:0]
}

// slot spreads h over the slots by its high bits after a Fibonacci
// multiply: the row hashes are FNV products, whose low bits mix poorly.
func (c *Chain) slot(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> c.shift }

// First returns the first entry under h's slot, -1 if there is none; Next
// walks on from an entry. The walk meets every entry hashed to h, and maybe
// others that share the slot.
func (c *Chain) First(h uint64) int32 { return c.heads[c.slot(h)] }

// Next returns the entry after i in i's slot, -1 at the end.
func (c *Chain) Next(i int32) int32 { return c.next[i] }

// link puts entry i, already present in next, at the head of h's slot.
func (c *Chain) link(i int32, h uint64) {
	s := c.slot(h)
	c.next[i] = c.heads[s]
	c.heads[s] = i
}

// Push links a new entry whose hash the caller has just appended to hashes,
// doubling the slots (and relinking from hashes) at load factor 1. A slot
// lists pushed entries newest first.
func (c *Chain) Push(hashes []uint64) {
	c.next = append(c.next, -1)
	if len(c.next) <= len(c.heads) {
		c.link(int32(len(c.next)-1), hashes[len(c.next)-1])
		return
	}
	c.resize(2 * len(c.heads))
	for i, h := range hashes {
		c.link(int32(i), h)
	}
}

// Index is a build table: rows chained by the Hash of their key columns, each
// slot listing its rows in the order they are in Rows. When the key is one
// column and every row's key is an INT, Ranged is set and [Lo, Hi] is the
// keys' range: a probe key outside it matches nothing.
type Index struct {
	Rows   []Row
	Chain  Chain
	Ranged bool
	Lo, Hi int64
}

// NewIndex indexes rows on the key columns. It keeps rows, not a copy.
func NewIndex(rows []Row, key []int) Index {
	ix := Index{Rows: rows, Chain: NewChain(len(rows))}
	ix.Chain.next = ix.Chain.next[:len(rows)]
	// The range of no key at all: an empty table leaves every probe key outside.
	ix.Ranged, ix.Lo, ix.Hi = len(key) == 1, math.MaxInt64, math.MinInt64
	// Linking from the last row back leaves every slot in row order.
	for i := len(rows) - 1; i >= 0; i-- {
		ix.Chain.link(int32(i), Hash(rows[i], key))
		if ix.Ranged {
			k, v, _ := rows[i][key[0]].Peek()
			ix.Ranged, ix.Lo, ix.Hi = k == value.KindInt, min(ix.Lo, v), max(ix.Hi, v)
		}
	}
	return ix
}

// Index returns the table's index on column col, built on first use — once,
// under the table's lock — and shared by every caller until Insert or a
// rolled-back ReadCSV drops it. The block store has none: a table larger than
// memory is scanned.
func (t *Table) Index(col int) *Index {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes == nil {
		t.indexes = make([]*Index, len(t.rel.Columns))
	}
	if t.indexes[col] == nil {
		ix := NewIndex(t.rows, []int{col})
		t.indexes[col] = &ix
		t.metrics.Counter("storage_index_builds_total", "table", t.rel.Name, "column", t.rel.Columns[col].Name).Inc()
	}
	return t.indexes[col]
}

// dropIndexes forgets every index: the rows they chain have changed.
func (t *Table) dropIndexes() {
	t.mu.Lock()
	t.indexes = nil
	t.mu.Unlock()
}

// OpenEq is Open — the storage.scan fault point, the scan metrics — yielding
// only the rows in the chain of v's hash in the table's index on column col,
// in insertion order. Every row whose column equals v is among them (Equal
// values hash alike), so a caller that filters on the equality afterwards
// gets exactly the rows a full scan would give it, in the same order.
func (t *Table) OpenEq(col int, v value.Value) (Cursor, error) {
	cur, err := t.Open()
	if err != nil {
		return nil, err
	}
	c := cur.(*memCursor)
	c.ix = t.Index(col)
	c.at = c.ix.Chain.First(Hash(Row{v}, []int{0}))
	return c, nil
}
