package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"cqp/internal/iter"
	"cqp/internal/prefs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
)

// The base cache (DESIGN §12, "The base cache"). By the union's construction
// a group is in the answer iff, for enough of its sub-queries, some tuple of
// B in the group satisfies what the sub-query adds. So B depends only on its
// clauses and the data, and each sub-query's set of groups only on B and its
// addition. The store keeps, per B, its tuples — row numbers into its
// tables' rows, ordered by group — and, per addition, the set of the groups
// it accepts; an execution intersects or counts the sets. When B does not
// fit the request's spill budget, the sub-queries run one at a time instead.
//
// Which rows of a table a condition accepts depends on nothing else either:
// the store keeps a row mark per residual selection and one-attribute
// reducer, a bit per row of its table, shared by every B over the table.
//
// An entry is keyed by an encoding of its clauses (appendClauses), and
// stamped with the summed row counts of the relations it reads: tables only
// append, so the sum is a version that moves with every insert.

// baseCacheBytes bounds what one store's cache holds — B's tuple references,
// group offsets and kept rows, every bitmap and every mark — before it
// evicts the least recently used B, with its bitmaps, or mark.
const baseCacheBytes = 8 << 20

// errSubqueries says the cache cannot answer an execution: the sub-queries
// run one at a time instead (UnionPlan.subqueries).
var errSubqueries = errors.New("exec: union answered one sub-query at a time")

// Report says how an evaluation of a union ran: Base is "hit" when B was
// cached, "fill" when this evaluation materialized it, and "subqueries" when
// the sub-queries ran one at a time; BitmapsHit and BitmapsBuilt count the
// sub-queries whose bitmap was cached and built, MarksHit and MarksBuilt the
// row marks the built ones read from the cache and computed. An evaluation
// fills the Report its context carries (WithReport).
type Report struct {
	Base                     string
	BitmapsHit, BitmapsBuilt int
	MarksHit, MarksBuilt     int
}

type reportKey struct{}

// WithReport returns a context under which a union's evaluation fills r.
func WithReport(ctx context.Context, r *Report) context.Context {
	return context.WithValue(ctx, reportKey{}, r)
}

// report records how an evaluation ran in the Report ctx carries, if any.
func report(ctx context.Context, how Report) {
	if r, _ := ctx.Value(reportKey{}).(*Report); r != nil {
		*r = how
	}
}

type cacheKey struct{}

// baseCache is one store's cache: its Bs and its marks by their keys, in
// one least-recently-used order, and the bytes they hold. One mutex guards
// the maps, the order, every B's bitmaps and the shared arrays' users;
// fills, bitmap builds and marks are computed outside it.
type baseCache struct {
	mu         sync.Mutex
	bases      map[string]*base
	marks      map[string]*entry
	head, tail *entry // most and least recently used
	bytes      int64
}

func cacheOf(db *storage.DB) *baseCache {
	return db.Memo(cacheKey{}, func() any {
		return &baseCache{bases: make(map[string]*base), marks: make(map[string]*entry)}
	}).(*baseCache)
}

// entry is a cached B or row mark. A mark's key is a zero byte, which leads
// no B's, and its condition's clauses: a selection, or a reducer projecting
// its side of the join after the attribute it attaches at.
type entry struct {
	key          string
	version      int64
	bytes        int64 // what the cache charges for a B with its bitmaps; 0 for a mark
	cached       bool
	newer, older *entry
	mark         []uint64 // a mark's bits, one per row of its table
	from         *shared  // the array a mark backs onto; nil for a B
}

// shared stands for what an evaluation's new bitmaps, or its new marks, back
// onto — one array of bits, one string of keys, one array of structs —
// charged bytes until its last user leaves the cache.
type shared struct{ bytes, users int64 }

// bitmapOverhead and markOverhead are a cached bitmap's and mark's struct and map slot.
const bitmapOverhead, markOverhead = 104, 136

// base is one materialized B. Tuple t is, for each relation in the order the
// fill joined them, the number of its row in rows[r]: refs[t*width+r].
// Tuples are ordered by group, and groups by their projection's SQL
// rendering (value.CompareSQL, column by column) — the order ranking breaks
// doi ties in; group g holds tuples start[g] up to start[g+1]. It is only read
// once filled.
type base struct {
	entry
	q       *query.Query    // B's clauses: the plan's, which no one writes
	rels    []string        // the relations, in join order
	rows    [][]storage.Row // their rows at the fill: an in-memory table's own, another backend's read
	width   int
	refs    []int32
	start   []int32
	project []attrAt // where each projected column lies in a tuple
	// keyBytes is what its groups' keys would take in the fallback's group
	// table; held what the rows it keeps of a backend other than the
	// in-memory table take.
	keyBytes, held int64

	bitmaps map[string]*bitmap // by the encoding of their additions, under baseCache.mu
}

// attrAt locates an attribute in a tuple: its relation's place, its column.
type attrAt struct{ rel, col int }

// bitmap is the set of B's groups one addition accepts, cached under the
// addition's encoding (appendClauses).
type bitmap struct {
	key     string
	version int64
	set     groupSet
	from    *shared
}

// groupSet is a set of B's groups, a bit per group.
type groupSet []uint64

// has reports whether group g is in the set.
func (s groupSet) has(g int) bool { return s[g/64]&(1<<(g%64)) != 0 }

// count is the number of groups in the set.
func (s groupSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// groups is B's number of groups.
func (b *base) groups() int { return len(b.start) - 1 }

// value returns attribute a of tuple t.
func (b *base) value(t int32, a attrAt) *value.Value {
	return &b.rows[a.rel][b.refs[int(t)*b.width+a.rel]][a.col]
}

// locate returns where attribute a lies in B's tuples.
func (b *base) locate(db *storage.DB, a schema.AttrRef) attrAt {
	r := slices.Index(b.rels, a.Relation)
	return attrAt{r, db.MustTable(a.Relation).Relation().ColumnIndex(a.Attr)}
}

// version sums the row counts of rels.
func version(db *storage.DB, rels []string) (v int64) {
	for _, r := range rels {
		v += int64(db.MustTable(r).RowCount())
	}
	return v
}

// fresh reports whether e is of version v: moved to the front if so, dropped if not.
func (c *baseCache) fresh(e *entry, v int64) bool {
	if e.version != v {
		c.remove(e)
		return false
	}
	c.unlink(e)
	c.pushFront(e)
	return true
}

// insert caches b unless an entry of its clauses came first, evicting the
// least recently used entries beyond the bound; it reports the evictions.
func (c *baseCache) insert(b *base) (evicted int) {
	if o := c.bases[b.key]; o != nil {
		if o.version >= b.version {
			return 0 // a concurrent fill got there first
		}
		c.remove(&o.entry)
	}
	evicted, _ = c.makeRoom(b.bytes, nil)
	c.bases[b.key] = b
	c.add(&b.entry)
	return evicted
}

// makeRoom evicts entries but keep, least recent first, until n more bytes fit.
func (c *baseCache) makeRoom(n int64, keep *entry) (evicted int, ok bool) {
	for c.bytes+n > baseCacheBytes && c.tail != nil && c.tail != keep {
		c.remove(c.tail)
		evicted++
	}
	return evicted, c.bytes+n <= baseCacheBytes
}

// add puts e, already in its map, at the front and charges its bytes.
func (c *baseCache) add(e *entry) {
	e.cached = true
	c.pushFront(e)
	c.bytes += e.bytes
}

// remove drops e — a B with its bitmaps, or a mark — from the cache.
func (c *baseCache) remove(e *entry) {
	delete(c.bases, e.key) // a mark's key is none of theirs, and a B's none of the marks'
	delete(c.marks, e.key)
	if e.from != nil {
		c.release(e.from, nil)
	}
	c.unlink(e)
	c.bytes -= e.bytes
	e.cached = false
}

// release drops a user of s. Once it has none, s is charged no more: to the
// cache, and to b, whose bitmaps back onto it, if b is not nil.
func (c *baseCache) release(s *shared, b *base) {
	if s.users--; s.users == 0 {
		c.bytes -= s.bytes
		if b != nil {
			b.bytes -= s.bytes
		}
	}
}

func (c *baseCache) pushFront(e *entry) {
	e.newer, e.older = nil, c.head
	if c.head != nil {
		c.head.newer = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *baseCache) unlink(e *entry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else if c.head == e {
		c.head = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else if c.tail == e {
		c.tail = e.newer
	}
	e.newer, e.older = nil, nil
}

// appendStr appends x to buf, its length first.
func appendStr(buf []byte, x string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(x))), x...)
}

// appendClauses appends an encoding of s's relations, joins, selections and
// projection to buf: two queries encode alike iff those clauses are equal, in
// order (a selection's literal by its kind and payload, as == compares it).
// It names a B and an addition (whose projection is empty) in the cache.
func appendClauses(buf []byte, s *query.Query) []byte {
	attr := func(a schema.AttrRef) { buf = appendStr(appendStr(buf, a.Relation), a.Attr) }
	buf = binary.AppendUvarint(buf, uint64(len(s.From)))
	for _, r := range s.From {
		buf = appendStr(buf, r)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Joins)))
	for _, j := range s.Joins {
		attr(j.Left)
		attr(j.Right)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Selections)))
	for i := range s.Selections {
		sel := &s.Selections[i]
		attr(sel.Attr)
		kind, n, text := sel.Value.Peek()
		buf = append(buf, byte(sel.Op), byte(kind))
		if kind == value.KindBool && sel.Value.AsBool() {
			n = 1
		}
		buf = appendStr(binary.AppendVarint(buf, n), text)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Project)))
	for _, a := range s.Project {
		attr(a)
	}
	return buf
}

// split is what build reads of a missing addition's parts, and its mark uses.
type split struct {
	joins    []query.Join
	comps    []*query.Query
	on       [][]schema.AttrRef
	from, to int // its uses, refs[from:to]
}

// markUse is a condition that missing additions read through a row mark: a
// residual selection (sels, alone) or a one-attribute reducer (red), testing
// the rows of B's relation at.rel at column at.col; its key is mkeys[from:end].
type markUse struct {
	sels      []query.Selection
	red       *query.Query
	at        attrAt
	from, end int
	version   int64
	set       []uint64 // nil until found in the cache or computed
}

// fromCache looks up, or fills, the B of p and the bitmap of every
// sub-query's addition, building the ones it lacks — from the row marks
// their conditions read, computing the ones the cache lacks — into bms. It
// answers errSubqueries when B, or the keys of the composite reducers it runs,
// exceed the request's executor budget or the cache's bound; how says
// whether B was a hit or a fill and what was found and built.
func (p *UnionPlan) fromCache(ctx context.Context, db *storage.DB, stats []SubQueryStat, bms []groupSet, how *Report) (b *base, err error) {
	v := version(db, p.base.From)
	limit := int64(baseCacheBytes)
	if budget := iter.BudgetFromContext(ctx).Bytes; budget > 0 {
		limit = min(limit, budget)
	}
	reg := db.Metrics()
	c := cacheOf(db)
	var bkeyBuf [256]byte
	bkey := appendClauses(bkeyBuf[:0], p.base)
	c.mu.Lock()
	if b = c.bases[string(bkey)]; b != nil && !c.fresh(&b.entry, v) {
		b = nil
	}
	c.mu.Unlock()
	evicted := 0
	if how.Base = "hit"; b == nil {
		how.Base = "fill"
		reg.Counter("exec_base_cache_misses_total").Inc()
		if b, err = fill(ctx, db, p.base, limit); err != nil {
			return nil, err
		}
		b.key, b.version = string(bkey), v
		c.mu.Lock()
		evicted = c.insert(b)
		c.mu.Unlock()
	} else {
		reg.Counter("exec_base_cache_hits_total").Inc()
		if !b.fits(limit) {
			return nil, errSubqueries
		}
	}

	// Each addition's encoding, one after another in keyBuf, and its
	// version, the summed row counts of the relations it adds.
	var keyBuf [1024]byte
	var endBuf [32]int
	var versionBuf [32]int64
	var missingBuf [32]int
	keys, ends, versions, missing := keyBuf[:0], endBuf[:0], versionBuf[:0], missingBuf[:0]
	for i := range p.adds {
		keys = appendClauses(keys, &p.adds[i])
		ends, versions = append(ends, len(keys)), append(versions, version(db, p.adds[i].From))
	}
	key := func(i int) []byte {
		if i == 0 {
			return keys[:ends[0]]
		}
		return keys[ends[i-1]:ends[i]]
	}
	c.mu.Lock()
	for i := range p.adds {
		if m := b.bitmaps[string(key(i))]; m != nil && m.version == versions[i] {
			bms[i] = m.set
		} else {
			missing = append(missing, i)
		}
	}
	c.mu.Unlock()
	how.BitmapsHit, how.BitmapsBuilt = len(p.adds)-len(missing), len(missing)
	if len(missing) == 0 {
		return b, nil
	}

	// The missing additions' parts, and the marks their residual selections and
	// one-attribute reducers read: a use per distinct condition, keyed in mkeys.
	var splitBuf [32]split
	var useBuf [32]markUse
	var refBuf [64]int32
	var mkeyBuf [1024]byte
	splits, uses, refs, mkeys := splitBuf[:0], useBuf[:0], refBuf[:0], mkeyBuf[:0]
	use := func(a schema.AttrRef, sels []query.Selection, red *query.Query) {
		from, cond := len(mkeys), red
		if red == nil {
			cond = &query.Query{Selections: sels}
		}
		if mkeys = append(mkeys, 0); red != nil { // its attachment: a selection names its own
			mkeys = appendStr(appendStr(mkeys, a.Relation), a.Attr)
		}
		mkeys = appendClauses(mkeys, cond)
		u := slices.IndexFunc(uses, func(u markUse) bool { return string(mkeys[u.from:u.end]) == string(mkeys[from:]) })
		if u < 0 {
			at := b.locate(db, a)
			u, uses = len(uses), append(uses, markUse{sels: sels, red: red, at: at, from: from, end: len(mkeys), version: int64(len(b.rows[at.rel])) + version(db, cond.From)})
		} else {
			mkeys = mkeys[:from]
		}
		refs = append(refs, int32(u))
	}
	for _, i := range missing {
		res, comps, on := parts(b.q, &p.adds[i])
		from := len(refs)
		for j := range res.Selections {
			use(res.Selections[j].Attr, res.Selections[j:j+1], nil)
		}
		for c, red := range comps {
			if len(on[c]) == 1 {
				use(on[c][0], nil, red)
			}
		}
		splits = append(splits, split{joins: res.Joins, comps: comps, on: on, from: from, to: len(refs)})
	}
	// One array backs the new marks' bits, one their structs, one their keys.
	nw := 0
	c.mu.Lock()
	for u := range uses {
		m := &uses[u]
		if e := c.marks[string(mkeys[m.from:m.end])]; e != nil && c.fresh(e, m.version) {
			m.set = e.mark
			how.MarksHit++
		} else {
			nw += (len(b.rows[m.at.rel]) + 63) / 64
		}
	}
	c.mu.Unlock()
	var marks []entry
	var ms *shared
	if how.MarksBuilt = len(uses) - how.MarksHit; how.MarksBuilt > 0 {
		marks = make([]entry, 0, how.MarksBuilt)
		rest, keys := make([]uint64, nw), string(mkeys) // the found marks' keys too: one copy
		ms = &shared{bytes: int64(how.MarksBuilt)*markOverhead + 8*int64(nw) + int64(len(keys))}
		for u := range uses {
			m := &uses[u]
			if m.set != nil {
				continue
			}
			n := (len(b.rows[m.at.rel]) + 63) / 64
			m.set, rest = rest[:n:n], rest[n:]
			if err := b.mark(ctx, db, m); err != nil {
				return nil, err
			}
			marks = append(marks, entry{key: keys[m.from:m.end], version: m.version, mark: m.set})
		}
	}

	// One array backs the missing bitmaps, one string their encodings.
	nw = (b.groups() + 63) / 64
	words := make([]uint64, nw*len(missing))
	nr := 0
	for _, i := range missing {
		nr += len(p.adds[i].From)
	}
	// A component has a relation at least: nr tags are enough.
	reduced := iter.NewGrouper(ctx, max(nr, 1))
	defer reduced.Close()
	tag, keyLen := 0, 0
	for _, i := range missing {
		keyLen += len(key(i))
	}
	fresh := make([]bitmap, len(missing))
	for k, i := range missing {
		m := &fresh[k]
		m.set, m.version = words[k*nw:(k+1)*nw:(k+1)*nw], versions[i]
		start := time.Now()
		tag, err = b.build(ctx, db, &splits[k], uses, refs, m.set, reduced, tag)
		stats[i].Elapsed += time.Since(start)
		if err != nil {
			if errors.Is(err, errSubqueries) {
				return nil, err
			}
			return nil, fmt.Errorf("sub-query %d: %w", i, err)
		}
		bms[i] = m.set
	}
	var enc strings.Builder // one string holds the new bitmaps' encodings
	enc.Grow(keyLen)
	for _, i := range missing {
		enc.Write(key(i))
	}
	encoded, at := enc.String(), 0
	for k, i := range missing {
		fresh[k].key = encoded[at : at+len(key(i))]
		at += len(key(i))
	}
	s := &shared{bytes: int64(len(fresh))*bitmapOverhead + 8*int64(cap(words)) + int64(len(encoded))}
	c.mu.Lock()
	if ms != nil { // each new mark, unless one as new came first
		ev, ok := c.makeRoom(ms.bytes, &b.entry)
		if evicted += ev; ok {
			c.bytes, ms.users = c.bytes+ms.bytes, 1 // held while the marks go in
			for i := range marks {
				if e, o := &marks[i], c.marks[marks[i].key]; o == nil || o.version < e.version {
					if o != nil {
						c.remove(o)
					}
					e.from, c.marks[e.key] = ms, e
					ms.users++
					c.add(e)
				}
			}
			c.release(ms, nil)
		}
	}
	ev, ok := 0, false
	if b.cached { // else its bitmaps are not kept either
		ev, ok = c.makeRoom(s.bytes, &b.entry)
	}
	if evicted += ev; ok {
		b.bytes, c.bytes = b.bytes+s.bytes, c.bytes+s.bytes
		if b.bitmaps == nil {
			b.bitmaps = make(map[string]*bitmap, len(missing))
		}
		for k := range fresh {
			// A bitmap of an older version of the addition's relations gives
			// way: rows were inserted into them.
			m := &fresh[k]
			if old := b.bitmaps[m.key]; old != nil {
				c.release(old.from, b)
			}
			m.from, b.bitmaps[m.key] = s, m
			s.users++
		}
	}
	bytes := c.bytes
	c.mu.Unlock()
	reg.Counter("exec_base_cache_mark_hits_total").Add(int64(how.MarksHit))
	reg.Counter("exec_base_cache_mark_misses_total").Add(int64(how.MarksBuilt))
	reg.Counter("exec_base_cache_evictions_total").Add(int64(evicted))
	reg.Gauge("exec_base_cache_bytes").Set(bytes)
	return b, nil
}

// ownBytes is what the cache charges for B without its bitmaps.
func (b *base) ownBytes() int64 {
	return b.refBytes() + b.held + int64(cap(b.project))*16 + int64(b.width)*40 + 256
}

// refBytes is what B's tuples and group offsets take.
func (b *base) refBytes() int64 { return 4 * int64(len(b.refs)+len(b.start)) }

// fits reports whether B fits limit bytes, measured as a budget measures
// state: its references, the rows it keeps, and its groups' keys as the
// fallback's group table would hold them (storage.Row.Width).
func (b *base) fits(limit int64) bool { return b.refBytes()+b.keyBytes+b.held <= limit }

// rowHeader is what a kept row costs beyond its values: its slice header.
const rowHeader = 24

// index returns t's index on column col over rows, B's rows of t: an
// in-memory table's own, built once and kept by the table, or else one
// built over rows here.
func index(t storage.Backend, rows []storage.Row, col int) *storage.Index {
	if mt, ok := t.(*storage.Table); ok {
		return mt.Index(col)
	}
	ix := storage.NewIndex(rows, []int{col})
	return &ix
}

// fill materializes the B of clauses q, joining from q.From[0] outwards by
// column indexes, then numbers its groups in key order. Every relation is
// opened once, which fires the storage.scan fault point and counts the pass:
// the first is scanned, an in-memory table joined to it is probed through
// its own index, and another backend's rows are read and indexed here. It
// answers errSubqueries once the tuples and kept rows exceed limit bytes.
func fill(ctx context.Context, db *storage.DB, q *query.Query, limit int64) (*base, error) {
	b := &base{q: q, width: len(q.From)}
	b.rels = make([]string, 0, b.width)
	b.rows = make([][]storage.Row, 0, b.width)
	// sels[i] are q's selections on the relation joined i-th, by column, and
	// eqs[i] its joins of two of that relation's columns: pickNext, which
	// joins a relation to the ones before it, never uses them, and a
	// relation is named once, so they are all the joins it leaves.
	var selsBuf [4][]colSel
	var eqsBuf [4][][2]int
	sels := append(selsBuf[:0], make([][]colSel, b.width)...)
	eqs := append(eqsBuf[:0], make([][][2]int, b.width)...)
	holds := func(w int, row storage.Row) bool {
		for _, s := range sels[w] {
			if !s.Op.Test(&row[s.col], &s.Value) {
				return false
			}
		}
		for _, e := range eqs[w] {
			if row[e[0]].Compare(row[e[1]]) != 0 {
				return false
			}
		}
		return true
	}
	// open opens relation r, the next to join, and returns its backend and
	// its cursor, which the caller drains (read) or closes. An in-memory
	// table's rows are B's to reference; another backend's are the rows its
	// cursor yields, which B keeps. A relation the fill drains opens through
	// the request's scan share, if it has one: a fill that gives up leaves
	// its pass to the sub-queries that run instead.
	open := func(r string) (storage.Backend, storage.Cursor, error) {
		t := db.MustTable(r)
		_, mem := t.(*storage.Table)
		var cur storage.Cursor
		var err error
		if len(b.rels) == 0 || !mem {
			cur, err = ScanShareFromContext(ctx).open(ctx, t)
		}
		if cur == nil && err == nil {
			cur, err = t.Open()
		}
		if err != nil {
			return nil, nil, err
		}
		w, rel := len(b.rels), t.Relation()
		for _, s := range q.Selections {
			if s.Attr.Relation == r {
				sels[w] = append(sels[w], colSel{s, rel.ColumnIndex(s.Attr.Attr)})
			}
		}
		for _, j := range q.Joins {
			if j.Left.Relation == r && j.Right.Relation == r {
				eqs[w] = append(eqs[w], [2]int{rel.ColumnIndex(j.Left.Attr), rel.ColumnIndex(j.Right.Attr)})
			}
		}
		var rows []storage.Row
		if mem {
			rows = t.(*storage.Table).Rows()
		}
		b.rels, b.rows = append(b.rels, r), append(b.rows, rows)
		return t, cur, nil
	}
	// read drains the cursor of relation w, which yields its rows in order,
	// calling fn, if not nil, with each and its number.
	read := func(w int, t storage.Backend, cur storage.Cursor, fn func(i int32, row storage.Row)) error {
		_, mem := t.(*storage.Table)
		for i := int32(0); ; i++ {
			row, ok, err := cur.Next()
			if err == nil && i%64 == 0 {
				err = ctx.Err()
			}
			if err == nil && ok && !mem && b.held > limit {
				err = errSubqueries
			}
			if !ok || err != nil {
				if cerr := cur.Close(); err == nil {
					err = cerr
				}
				return err
			}
			if !mem {
				b.rows[w] = append(b.rows[w], row)
				b.held += int64(rowHeader + 32*len(row) + row.Width())
			}
			if fn != nil {
				fn(i, row)
			}
		}
	}
	tooBig := func(refs int) bool { return 4*int64(refs)+b.held > limit }

	// The first relation is scanned. Its rows that hold are B when it is
	// alone; otherwise the first join reads them in place.
	t0, scan, err := open(q.From[0])
	if err != nil {
		return nil, err
	}
	var cur []int32
	if b.width == 1 {
		cur = make([]int32, 0, t0.RowCount())
	}
	err = read(0, t0, scan, func(i int32, row storage.Row) {
		if b.width == 1 && holds(0, row) {
			cur = append(cur, i)
		}
	})
	if err != nil {
		return nil, err
	}
	// Then one pass per relation joined: cur holds the tuples so far, w
	// relations wide.
	joined := map[string]bool{q.From[0]: true}
	var usedBuf [8]bool
	used := append(usedBuf[:0], make([]bool, len(q.Joins))...)
	for w := 1; w < b.width; w++ {
		next, conds := pickNext(q, joined, used, nil)
		if next == "" { // disconnected: a cartesian product with the next relation
			for _, r := range q.From {
				if !joined[r] {
					next = r
					break
				}
			}
		}
		t, probed, err := open(next)
		if err == nil {
			if _, mem := t.(*storage.Table); mem {
				err = probed.Close() // read through the index, or the rows in place
			} else {
				err = read(w, t, probed, nil)
			}
		}
		if err != nil {
			return nil, err
		}
		joined[next] = true
		var leftBuf [2]attrAt
		var rightBuf [2]int
		left := append(leftBuf[:0], make([]attrAt, len(conds))...)
		right := append(rightBuf[:0], make([]int, len(conds))...)
		for i, c := range conds {
			left[i] = b.locate(db, c.Left)
			right[i] = t.Relation().ColumnIndex(c.Right.Attr)
		}
		rows := b.rows[w]
		var ix *storage.Index
		var key [1]int // the probe's key column, hashed as the index hashes its own
		if len(conds) > 0 {
			ix, key[0] = index(t, rows, right[0]), left[0].col
		}
		// A key join yields about as many tuples as the larger side has rows.
		out := make([]int32, 0, max(len(rows), len(cur)/w)*(w+1))
		join := func(tuple []int32) {
			if ix == nil {
				for j, row := range rows {
					if holds(w, row) {
						out = append(append(out, tuple...), int32(j))
					}
				}
				return
			}
			probe := b.rows[left[0].rel][tuple[left[0].rel]]
			if k, v, _ := probe[left[0].col].Peek(); ix.Ranged && k == value.KindInt && (v < ix.Lo || v > ix.Hi) {
				return
			}
		candidates:
			for j := ix.Chain.First(storage.Hash(probe, key[:])); j >= 0; j = ix.Chain.Next(j) {
				row := rows[j]
				for i, a := range left {
					if b.rows[a.rel][tuple[a.rel]][a.col].Compare(row[right[i]]) != 0 {
						continue candidates
					}
				}
				if holds(w, row) {
					out = append(append(out, tuple...), j)
				}
			}
		}
		// n counts the tuples joined, polling ctx and the limit every 64.
		n := 0
		check := func() error {
			if n++; n%64 != 0 {
				return nil
			}
			if tooBig(len(out)) {
				return errSubqueries
			}
			return ctx.Err()
		}
		if w == 1 {
			var one [1]int32
			for j, row := range b.rows[0] {
				if !holds(0, row) {
					continue
				}
				if err := check(); err != nil {
					return nil, err
				}
				one[0] = int32(j)
				join(one[:])
			}
		} else {
			for at := 0; at < len(cur); at += w {
				if err := check(); err != nil {
					return nil, err
				}
				join(cur[at : at+w])
			}
		}
		cur = out
	}
	if tooBig(len(cur)) {
		return nil, errSubqueries
	}
	cur = exact(cur)
	b.refs = cur
	b.project = make([]attrAt, len(q.Project))
	for i, a := range q.Project {
		b.project[i] = b.locate(db, a)
	}
	if err := b.group(ctx); err != nil {
		return nil, err
	}
	if !b.fits(limit) {
		return nil, errSubqueries
	}
	b.bytes = b.ownBytes()
	return b, nil
}

// exact returns s, or a copy of it without the spare capacity when that is
// more than a quarter of it.
func exact(s []int32) []int32 {
	if cap(s) > len(s)+len(s)/4 {
		return slices.Clone(s)
	}
	return s
}

// colSel is a selection with the column it reads.
type colSel struct {
	query.Selection
	col int
}

// group orders B's tuples by their projections' SQL renderings, keeping the
// fill's order among equal ones, and numbers the runs of equal projections:
// the groups, in key order.
func (b *base) group(ctx context.Context) error {
	n := len(b.refs) / b.width
	perm := make([]int32, n)
	for t := range perm {
		perm[t] = int32(t)
	}
	// Ties break on the fill's order: the order is total, so the unstable
	// sort is deterministic.
	slices.SortFunc(perm, func(s, t int32) int {
		if d := b.compareKeys(s, t); d != 0 {
			return d
		}
		for _, a := range b.project { // equal renderings of unequal values stay apart
			if d := b.value(s, a).Compare(*b.value(t, a)); d != 0 {
				return d
			}
		}
		return int(s - t)
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	// Move every tuple to its place, a cycle of the permutation at a time;
	// a moved tuple's entry is marked done.
	var tmpBuf [8]int32
	tmp := append(tmpBuf[:0], make([]int32, b.width)...)
	tuple := func(t int32) []int32 { return b.refs[int(t)*b.width : int(t+1)*b.width] }
	for i := range perm {
		if perm[i] < 0 || perm[i] == int32(i) {
			continue
		}
		copy(tmp, tuple(int32(i)))
		for at := int32(i); ; {
			from := perm[at]
			perm[at] = -1
			if from == int32(i) {
				copy(tuple(at), tmp)
				break
			}
			copy(tuple(at), tuple(from))
			at = from
		}
	}
	// perm is read no more: it holds each group's first tuple while the runs
	// are counted.
	first := perm[:0]
	for t := range n {
		if t%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if t > 0 && b.sameKey(int32(t), int32(t-1)) {
			continue
		}
		first = append(first, int32(t))
		b.keyBytes += 8 // storage.Row.Width's row overhead
		for _, a := range b.project {
			b.keyBytes += int64(b.value(int32(t), a).Width())
		}
	}
	b.start = append(make([]int32, 0, len(first)+1), first...)
	b.start = append(b.start, int32(n))
	return nil
}

// sameKey reports whether tuples s and t project equal keys.
func (b *base) sameKey(s, t int32) bool {
	for _, a := range b.project {
		if b.value(s, a).Compare(*b.value(t, a)) != 0 {
			return false
		}
	}
	return true
}

// compareKeys orders tuples s and t as ranking breaks a doi tie: by their
// projections' SQL renderings, column by column.
func (b *base) compareKeys(s, t int32) int {
	for _, a := range b.project {
		if d := value.CompareSQL(*b.value(s, a), *b.value(t, a)); d != 0 {
			return d
		}
	}
	return 0
}

// mark sets in u.set the rows of B's relation u.at.rel that u accepts: a
// selection tests each row (an in-memory equality, its index's candidates),
// a reducer's keys mark the rows they find in the index on its attachment.
func (b *base) mark(ctx context.Context, db *storage.DB, u *markUse) error {
	rows, t, col := b.rows[u.at.rel], db.MustTable(b.rels[u.at.rel]), u.at.col
	// probe marks the rows key[0] finds in ix: a table's own index may hold
	// rows inserted since B's fill, which B has not.
	one := []int{0}
	probe := func(ix *storage.Index, key storage.Row) {
		if k, v, _ := key[0].Peek(); ix.Ranged && k == value.KindInt && (v < ix.Lo || v > ix.Hi) {
			return
		}
		for j := ix.Chain.First(storage.Hash(key, one)); j >= 0; j = ix.Chain.Next(j) {
			if int(j) < len(rows) && (u.red == nil && u.sels[0].Op.Test(&rows[j][col], &key[0]) || u.red != nil && key[0].Compare(rows[j][col]) == 0) {
				u.set[j/64] |= 1 << (j % 64)
			}
		}
	}
	if u.red != nil {
		ix := index(t, rows, col)
		red, err := buildJoinTree(ctx, db, u.red, reducerSeed(ctx, db, u.red))
		if err == nil {
			err = closing(red, each(red, func(row storage.Row) error { probe(ix, row); return nil }))
		}
		return err
	}
	sel := &u.sels[0]
	if _, mem := t.(*storage.Table); mem && sel.Op == query.OpEq {
		probe(index(t, rows, col), storage.Row{sel.Value})
		return nil
	}
	for j := range rows {
		if j%64 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if sel.Op.Test(&rows[j][col], &sel.Value) {
			u.set[j/64] |= 1 << (j % 64)
		}
	}
	return nil
}

// build sets in words the groups that addition sp accepts: those with a
// tuple that passes its residual joins, whose rows are marked in the marks
// its residual selections and one-attribute reducers read (uses, by refs),
// and that finds its key among the keys of each of its other components'
// reducers. Those of several attributes go to keys, the evaluation's one key
// set, under a tag of the component's own from tag on. build returns the next
// free tag. It answers errSubqueries if the keys spill.
func (b *base) build(ctx context.Context, db *storage.DB, sp *split, uses []markUse, refs []int32, words []uint64, keys *iter.Grouper, tag int) (int, error) {
	// A probe is one condition's test of a tuple: whether the row of B's
	// relation rel is marked (at is nil), or whether the tuple's attributes
	// at are among the keys under its tag.
	type probe struct {
		mark     []uint64
		rel, tag int
		at       []attrAt
	}
	var probeBuf [4]probe
	var atBuf [8]attrAt
	probes, ats := probeBuf[:0], atBuf[:0]
	for _, u := range refs[sp.from:sp.to] {
		probes = append(probes, probe{mark: uses[u].set, rel: uses[u].at.rel})
	}
	for c, q := range sp.comps {
		if len(sp.on[c]) == 1 {
			continue // marked
		}
		from := len(ats)
		for _, a := range sp.on[c] {
			ats = append(ats, b.locate(db, a))
		}
		found := false
		add := func(row storage.Row) error { return keys.Add(row, tag) }
		if len(sp.on[c]) == 0 {
			add = func(storage.Row) error { found = true; return nil }
		}
		red, err := buildJoinTree(ctx, db, q, reducerSeed(ctx, db, q))
		if err == nil {
			err = closing(red, each(red, add))
		}
		if err == nil && keys.Spilled() {
			err = errSubqueries
		}
		if err != nil {
			return tag, err
		}
		tag++
		if len(sp.on[c]) == 0 {
			// An existence test: it holds for every tuple or for none.
			if !found {
				return tag, nil
			}
			continue
		}
		probes = append(probes, probe{tag: tag - 1, at: ats[from:]})
	}
	var joinBuf [4][2]attrAt
	joins := joinBuf[:0]
	for _, j := range sp.joins {
		joins = append(joins, [2]attrAt{b.locate(db, j.Left), b.locate(db, j.Right)})
	}
	// One mark and nothing else, the common case, is a walk: a group is set
	// if one of its tuples' rows is marked.
	walk := len(probes) == 1 && probes[0].at == nil && len(joins) == 0
	var keyBuf [4]value.Value
	var idxBuf [4]int
	key, idx := keyBuf[:0], idxBuf[:0]
	for g := range b.groups() {
		if g%64 == 0 {
			if err := ctx.Err(); err != nil {
				return tag, err
			}
		}
		if walk { // without a branch per tuple, which a mark's bits would mispredict
			var hit uint64
			for t, m, rel := b.start[g], probes[0].mark, probes[0].rel; t < b.start[g+1]; t++ {
				row := uint(b.refs[int(t)*b.width+rel])
				hit |= m[row/64] >> (row % 64)
			}
			words[g/64] |= (hit & 1) << (g % 64)
			continue
		}
	tuples:
		for t := b.start[g]; t < b.start[g+1]; t++ {
			for _, j := range joins {
				if b.value(t, j[0]).Compare(*b.value(t, j[1])) != 0 {
					continue tuples
				}
			}
			for _, p := range probes {
				if p.at == nil {
					if row := b.refs[int(t)*b.width+p.rel]; p.mark[row/64]&(1<<(row%64)) == 0 {
						continue tuples
					}
					continue
				}
				key, idx = key[:0], idx[:0]
				for k, a := range p.at {
					key, idx = append(key, *b.value(t, a)), append(idx, k)
				}
				if tags := keys.Lookup(key, idx); tags == nil || tags[p.tag/64]&(1<<(p.tag%64)) == 0 {
					continue tuples
				}
			}
			words[g/64] |= 1 << (g % 64)
			break
		}
	}
	return tag, nil
}

// answer ranks the groups that at least minMatches sub-queries accept, from
// bms, their sets: every sub-query's rows are its count; all-match is the
// sets' intersection, whose groups tie on doi and rank in group order, so a
// top-k answer stops after k of them; otherwise each group's matches are
// counted and ranked by doi, then by group.
func (b *base) answer(bms []groupSet, dois []float64, minMatches, k int, stats []SubQueryStat) (rows []RankedRow, total int) {
	nw := (b.groups() + 63) / 64
	for i, m := range bms {
		stats[i].Rows = m.count()
	}
	rk := groupRanking{k: k}
	doiOf := func(g int) (float64, int) {
		var acc prefs.ConjAccum
		acc.Reset()
		n := 0
		for i, m := range bms {
			if m.has(g) {
				n++
				if dois != nil {
					acc.Add(dois[i])
				}
			}
		}
		return acc.Doi(), n
	}
	if minMatches == len(bms) {
		// The intersection, word by word in group order.
		each := func(fn func(g int)) {
			for w := range nw {
				m := ^uint64(0)
				for _, bm := range bms {
					m &= bm[w]
				}
				for ; m != 0; m &= m - 1 {
					fn(w*64 + bits.TrailingZeros64(m))
				}
			}
		}
		each(func(int) { total++ })
		if k == 0 || k > total {
			k = total
		}
		rk.kept = make([]ranked, 0, k)
		var doi float64
		each(func(g int) {
			if len(rk.kept) == 0 {
				doi, _ = doiOf(g)
			}
			if len(rk.kept) < k {
				rk.kept = append(rk.kept, ranked{doi: doi, group: int32(g)})
			}
		})
	} else {
		if k > 0 {
			rk.kept = make([]ranked, 0, k)
		}
		for w := range nw {
			var m uint64
			for _, bm := range bms {
				m |= bm[w]
			}
			for ; m != 0; m &= m - 1 {
				g := w*64 + bits.TrailingZeros64(m)
				doi, n := doiOf(g)
				if n >= minMatches {
					total++
					rk.offer(ranked{doi: doi, group: int32(g)})
				}
			}
		}
		rk.sort()
	}
	return b.rankedRows(rk.kept, bms), total
}

// rankedRows makes the answer's rows of the kept groups: each key copied
// from its group's first tuple, and the sub-queries that accept it.
func (b *base) rankedRows(kept []ranked, bms []groupSet) []RankedRow {
	if len(kept) == 0 {
		return nil
	}
	n := 0
	for _, c := range kept {
		for _, m := range bms {
			n += btoi(m.has(int(c.group)))
		}
	}
	rows := make([]RankedRow, len(kept))
	keys := make(storage.Row, len(kept)*len(b.project))
	ints := make([]int, 0, n) // backs the Matched slices
	for r, c := range kept {
		g := int(c.group)
		key := keys[r*len(b.project) : (r+1)*len(b.project) : (r+1)*len(b.project)]
		for i, a := range b.project {
			key[i] = *b.value(b.start[g], a)
		}
		from := len(ints)
		for i, m := range bms {
			if m.has(g) {
				ints = append(ints, i)
			}
		}
		rows[r] = RankedRow{Key: key, Matched: ints[from:len(ints):len(ints)], Doi: c.doi}
	}
	return rows
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ranked is a group with its doi.
type ranked struct {
	doi   float64
	group int32
}

// before reports whether x ranks before y: higher doi, then lower group.
func (x ranked) before(y ranked) bool {
	if x.doi != y.doi {
		return x.doi > y.doi
	}
	return x.group < y.group
}

// groupRanking keeps the ranked groups, or with k > 0 the k best as a heap
// whose root is the worst kept.
type groupRanking struct {
	kept []ranked
	k    int
}

func (r *groupRanking) offer(c ranked) {
	if r.k == 0 || len(r.kept) < r.k {
		r.kept = append(r.kept, c)
		if r.k > 0 {
			for i := len(r.kept) - 1; i > 0; {
				p := (i - 1) / 2
				if !r.kept[p].before(r.kept[i]) {
					break
				}
				r.kept[p], r.kept[i] = r.kept[i], r.kept[p]
				i = p
			}
		}
		return
	}
	if !c.before(r.kept[0]) {
		return
	}
	r.kept[0] = c
	for i := 0; ; {
		w := 2*i + 1
		if w >= len(r.kept) {
			return
		}
		if w+1 < len(r.kept) && r.kept[w].before(r.kept[w+1]) {
			w++ // the worse child
		}
		if !r.kept[i].before(r.kept[w]) {
			return
		}
		r.kept[i], r.kept[w] = r.kept[w], r.kept[i]
		i = w
	}
}

// sort orders the kept groups best first.
func (r *groupRanking) sort() {
	slices.SortFunc(r.kept, func(x, y ranked) int {
		switch {
		case x.before(y):
			return -1
		case y.before(x):
			return 1
		}
		return 0
	})
}
