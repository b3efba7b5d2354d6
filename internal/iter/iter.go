// Package iter is the streaming executor substrate: composable pull
// iterators (Next/Close) over storage rows, with cancellation checkpoints
// woven into every loop and operators that degrade to disk instead of
// exhausting memory.
//
// The seed executor materialized every intermediate result — fine for the
// paper's 4000-movie evaluation, fatal for serving databases larger than
// RAM. Here a query becomes a tree of iterators pulled one row at a time:
// scans stream from the storage backend's cursors, filters and
// projections transform in place, and the two stateful operators — hash
// join (keyless, the cartesian product) and grouper (tagless, DISTINCT) —
// watch a per-query memory budget (threaded through context.Context, see
// WithBudget) and spill their state to hash-partitioned temp files (Grace
// style) when they exceed it. A top-k
// consumer simply stops pulling: no operator below ever materializes
// what the consumer never asks for.
//
// Cancellation: operators poll ctx.Err() every checkEvery rows inside
// their tight loops, so an expired deadline stops a scan or a join build
// mid-stream, not just between phases. Fault injection: the iter.spill
// point fires when spill partitions are created and when they are
// finalized for read-back, standing in for a full or failing scratch
// disk.
package iter

import (
	"context"
	"io"

	"cqp/internal/storage"
	"cqp/internal/value"
)

// checkEvery is how many rows a tight operator loop processes between
// ctx.Err() polls: frequent enough that cancellation lands promptly,
// sparse enough to stay invisible in profiles.
const checkEvery = 64

// poll is an operator loop's cancellation checkpoint: every checkEvery-th
// check polls the context.
type poll struct {
	ctx context.Context
	n   int
}

func (p *poll) check() error {
	p.n++
	if p.n%checkEvery == 0 {
		return p.ctx.Err()
	}
	return nil
}

// closeAll closes every closer, returning the first error.
func closeAll(cs ...io.Closer) error {
	var first error
	for _, c := range cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Iterator is a pull-based row stream. Next returns the next row until
// ok == false (end) or a non-nil error; after either, callers stop. Close
// releases operator state (cursors, spill files) and must be called
// exactly once; it propagates to child iterators.
//
// Ownership: a row returned by Next is valid until the next Next on that
// iterator — HashJoin, Project and a Grouper (Distinct too) emit into one
// buffer per iterator and overwrite it on every call — and whoever keeps a
// row copies it once (Collect, RowSet and a join build do, into a slab). The
// exception is a stream whose rows nobody overwrites: the storage sources
// hand out the table's own immutable rows, and Filter and Limit pass their
// source's rows through. Such an iterator says so through
// retains, and a keeper then holds its rows by reference.
type Iterator interface {
	Next() (row storage.Row, ok bool, err error)
	Close() error
}

// retains reports whether rows from it stay valid after its next Next.
func retains(it Iterator) bool {
	r, ok := it.(interface{ retains() bool })
	return ok && r.retains()
}

// Slab hands out small slices carved from shared chunks that are never
// reallocated, so a slice stays valid (and stays put) for as long as
// anything refers to it. Chunks double up to slabMax elements: a small
// result allocates little, a large one a chunk per few hundred rows instead
// of a slice per row. The keepers hold their copies of transient rows in
// one; the executor's ranking takes its per-row slices from others. A slab
// whose slices are all dead can be Reset and filled again from the chunks it
// has (the recycled group table's is).
type Slab[T any] struct {
	free   []T
	chunk  int
	chunks [][]T // every chunk made, in order; the first used are in use
	used   int
}

const slabMax = 4096

// Take returns a zeroed slice of n elements with no spare capacity.
func (s *Slab[T]) Take(n int) []T {
	for n > len(s.free) {
		if s.used < len(s.chunks) {
			// A chunk from before Reset: zeroed now that it is handed out again.
			s.free = s.chunks[s.used]
			clear(s.free)
		} else {
			s.chunk = min(max(2*s.chunk, 64), slabMax)
			s.free = make([]T, max(s.chunk, n))
			s.chunks = append(s.chunks, s.free)
		}
		s.used++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// Reset takes every slice handed out back — their holders must be gone — and
// keeps the chunks for the Takes to come.
func (s *Slab[T]) Reset() { s.free, s.used = nil, 0 }

// keep returns the slab's own copy of a transient row.
func keep(s *Slab[value.Value], r storage.Row) storage.Row {
	out := s.Take(len(r))
	copy(out, r)
	return out
}

// Budget caps the in-memory state of one stateful operator (hash-join
// build table, grouper table). Bytes == 0 means unlimited (never spill);
// Dir == "" spills to the OS temp directory.
type Budget struct {
	Bytes int64
	Dir   string
}

type budgetKey struct{}

// WithBudget threads a per-query spill budget through the context; every
// stateful operator created under it observes the cap. The context is
// used (rather than plumbing a parameter through every evaluation
// signature) because the budget is an operational property of a request,
// exactly like its deadline.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFromContext returns the budget installed by WithBudget, or the
// unlimited zero Budget.
func BudgetFromContext(ctx context.Context) Budget {
	b, _ := ctx.Value(budgetKey{}).(Budget)
	return b
}

// HashRow hashes all values of the row.
func HashRow(r storage.Row) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range r {
		h = (h ^ v.Hash()) * 1099511628211
	}
	return h
}

// rowBytes is the budget charge for holding r in operator state: the
// storage width is close enough to the in-memory footprint and already
// computed by the block model.
func rowBytes(r storage.Row) int64 { return int64(r.Width()) }

// --- sources ---

type cursorIter struct {
	ctx context.Context
	cur storage.Cursor
	n   int
}

// FromCursor streams a storage cursor, polling for cancellation every
// checkEvery rows so a scan over a huge heap file dies promptly with its
// request. Cursor rows are the backend's own (storage.Cursor), so they may
// be retained.
func FromCursor(ctx context.Context, cur storage.Cursor) Iterator {
	return &cursorIter{ctx: ctx, cur: cur}
}

func (it *cursorIter) Next() (storage.Row, bool, error) {
	if it.n%checkEvery == 0 {
		if err := it.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	it.n++
	return it.cur.Next()
}

func (it *cursorIter) Close() error  { return it.cur.Close() }
func (it *cursorIter) retains() bool { return true }

type sliceIter struct {
	ctx  context.Context // nil: no cancellation checkpoints
	rows []storage.Row
	i    int
}

// FromRows streams a materialized slice (tests, residual small inputs).
// The rows are the caller's and may be retained.
func FromRows(rows []storage.Row) Iterator { return &sliceIter{rows: rows} }

// FromRowsContext streams a materialized slice with the same cancellation
// checkpoints a cursor scan has — the source for shared-scan consumers,
// whose "scan" is a slice another consumer already materialized but must
// still die promptly with its request.
func FromRowsContext(ctx context.Context, rows []storage.Row) Iterator {
	return &sliceIter{ctx: ctx, rows: rows}
}

func (it *sliceIter) Next() (storage.Row, bool, error) {
	if it.ctx != nil && it.i%checkEvery == 0 {
		if err := it.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if it.i >= len(it.rows) {
		return nil, false, nil
	}
	r := it.rows[it.i]
	it.i++
	return r, true, nil
}

func (it *sliceIter) Close() error  { return nil }
func (it *sliceIter) retains() bool { return true }

// --- stateless transforms ---

type filterIter struct {
	src  Iterator
	keep func(storage.Row) bool
}

// Filter passes through rows satisfying keep.
func Filter(src Iterator, keep func(storage.Row) bool) Iterator {
	return &filterIter{src: src, keep: keep}
}

func (it *filterIter) Next() (storage.Row, bool, error) {
	for {
		r, ok, err := it.src.Next()
		if !ok || err != nil {
			return nil, false, err
		}
		if it.keep(r) {
			return r, true, nil
		}
	}
}

func (it *filterIter) Close() error  { return it.src.Close() }
func (it *filterIter) retains() bool { return retains(it.src) }

type projectIter struct {
	src Iterator
	idx []int
	out storage.Row
}

// Project emits the source columns at idx, in order, into one reused row.
func Project(src Iterator, idx []int) Iterator {
	return &projectIter{src: src, idx: idx, out: make(storage.Row, len(idx))}
}

func (it *projectIter) Next() (storage.Row, bool, error) {
	r, ok, err := it.src.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	for i, j := range it.idx {
		it.out[i] = r[j]
	}
	return it.out, true, nil
}

func (it *projectIter) Close() error { return it.src.Close() }

type limitIter struct {
	src  Iterator
	left int
}

// Limit stops after n rows; operators below it never produce more work
// than the consumer asked for.
func Limit(src Iterator, n int) Iterator { return &limitIter{src: src, left: n} }

func (it *limitIter) Next() (storage.Row, bool, error) {
	if it.left <= 0 {
		return nil, false, nil
	}
	r, ok, err := it.src.Next()
	if !ok || err != nil {
		return nil, false, err
	}
	it.left--
	return r, true, nil
}

func (it *limitIter) Close() error  { return it.src.Close() }
func (it *limitIter) retains() bool { return retains(it.src) }

// Collect drains the iterator into a slice of rows the caller owns — by
// reference when its rows may be retained, as one slab copy otherwise — and
// closes it, keeping the first error from either. The operators below poll
// their own context; Collect has none to add.
func Collect(it Iterator) ([]storage.Row, error) {
	var rows []storage.Row
	var kept Slab[value.Value]
	byRef := retains(it)
	for {
		r, ok, err := it.Next()
		if !ok || err != nil {
			if cerr := it.Close(); cerr != nil && err == nil {
				err = cerr
			}
			return rows, err
		}
		if !byRef {
			r = keep(&kept, r)
		}
		rows = append(rows, r)
	}
}

// --- row set (hash-indexed, equality-checked) ---

// RowSet is a duplicate detector: rows indexed by a 64-bit row hash and
// confirmed by value comparison. The set keeps its own copy of every
// distinct row, in first-appearance order, in flat slices — membership
// costs one hash and, on a slot collision, value comparisons; a new row
// costs its copy and no allocation of its own.
type RowSet struct {
	idx   storage.Chain
	hash  []uint64
	rows  []storage.Row
	kept  Slab[value.Value]
	bytes int64
}

// add inserts a copy of r if absent, reporting where in Rows the set's own
// copy of the row sits and whether it was newly added; the copy stays valid
// for as long as the caller holds it.
func (s *RowSet) add(r storage.Row) (int, bool) {
	h := HashRow(r)
	for i := s.idx.First(h); i >= 0; i = s.idx.Next(i) {
		if s.hash[i] == h && EqualRows(s.rows[i], r) {
			return int(i), false
		}
	}
	s.rows = append(s.rows, keep(&s.kept, r))
	s.hash = append(s.hash, h)
	s.idx.Push(s.hash)
	s.bytes += rowBytes(r)
	return len(s.rows) - 1, true
}

// reset empties the set, keeping its memory for the rows to come: every row
// it handed out is dead.
func (s *RowSet) reset() {
	s.idx.Reset()
	s.kept.Reset()
	s.hash, s.rows, s.bytes = s.hash[:0], s.rows[:0], 0
}

// Bytes returns the approximate memory held by the set's rows.
func (s *RowSet) Bytes() int64 { return s.bytes }

// Rows returns the distinct rows in first-appearance order.
func (s *RowSet) Rows() []storage.Row { return s.rows }

// EqualRows reports positionwise value equality (numeric kinds compare
// numerically, matching join semantics).
func EqualRows(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}
