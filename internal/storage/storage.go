// Package storage defines the relational storage layer: the Backend
// interface every table engine implements, the in-memory heap table that
// substitutes for the paper's Oracle 9i substrate, and the DB that binds a
// schema to per-relation backends.
//
// The paper's cost model (Section 7.1) charges b milliseconds per disk block
// read, assumes full scans with no indexes, and keeps intermediate results in
// memory. Tables are heap files of rows packed into fixed-size blocks, and
// the block arithmetic (BlockTally) is shared, so the in-memory and
// persistent backends report identical block counts for identical data. The
// charge itself is arithmetic over those counts, computed by the executor;
// a backend's Open only fires the fault point and counts the pass. The
// persistent block-store backend lives in internal/blockstore.
//
// How the in-memory table finds its rows is not the model's business: it
// keeps a hash index per column a query asks about (Index), which equality
// scans (OpenEq) and join builds read instead of the heap file.
package storage

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"cqp/internal/fault"
	"cqp/internal/obs"
	"cqp/internal/schema"
	"cqp/internal/value"
)

// DefaultBlockSize is the block size in bytes used unless overridden.
// 8 KiB matches a typical DBMS page.
const DefaultBlockSize = 8192

// rowOverhead is the per-row header charge in bytes (slot pointer + header),
// making block counts behave like a slotted-page layout.
const rowOverhead = 8

// Row is one tuple. Positions align with the relation's columns.
type Row []value.Value

// Clone returns a copy of the row sharing value payloads (values are
// immutable, so sharing is safe).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Width returns the row's storage footprint in bytes, including overhead.
func (r Row) Width() int {
	w := rowOverhead
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// BlockTally tracks the logical heap-file geometry of a table under the
// paper's block model: rows packed into fixed-size blocks in insertion
// order, each charged Row.Width bytes. Both the in-memory and the
// persistent backends advance a BlockTally identically, so Blocks() — the
// quantity the estimator and the cost model consume — is
// backend-independent by construction.
type BlockTally struct {
	BlockSize int
	// Blocks is the number of (virtual) blocks occupied so far.
	Blocks int64
	// Used is the number of bytes used in the last block.
	Used int
}

// Add appends one row of the given width, opening a new block when the
// current one cannot hold it.
func (t *BlockTally) Add(width int) {
	if t.Blocks == 0 || t.Used+width > t.BlockSize {
		t.Blocks++
		t.Used = 0
	}
	t.Used += width
}

// Cursor is a pull cursor over a table's rows in insertion order. A
// returned row is the backend's own — the heap table's stored row, or a row
// the block store decoded afresh — and stays valid after the next call to
// Next: callers may retain it (the executor's join builds and shared scans
// do) but must never modify it.
type Cursor interface {
	// Next returns the next row. ok is false once the cursor is exhausted.
	Next() (row Row, ok bool, err error)
	// Close releases the cursor. Backends may recycle closed cursors.
	Close() error
}

// ErrRead marks a backend's failure to read its own rows: the server's fault.
var ErrRead = errors.New("storage: read failed")

// Backend is one relation's storage engine: the in-memory heap table here,
// or the persistent block store in internal/blockstore. Backends are safe
// for concurrent reads; mutation (Insert, ReadCSV) must not race with open
// cursors.
type Backend interface {
	// Relation returns the table's relation definition.
	Relation() *schema.Relation
	// RowCount returns the number of stored tuples.
	RowCount() int
	// Blocks returns the number of logical blocks the table occupies under
	// the paper's block model (identical across backends for the same data).
	Blocks() int64
	// BlockSize returns the block size in bytes.
	BlockSize() int
	// Insert validates a tuple against the relation and appends it.
	Insert(Row) error
	// MustInsert is Insert panicking on error; for generators and tests.
	MustInsert(vals ...value.Value)
	// Open starts a query-path scan: it fires the storage.scan fault point
	// and records one pass in the table's scan metrics.
	Open() (Cursor, error)
	// OpenRaw starts a maintenance scan: no scan metrics, and exempt from
	// the storage.scan query-path fault point (statistics builds and CSV
	// exports are catalog work, not query work). Physical read failures of
	// persistent backends still surface.
	OpenRaw() (Cursor, error)
	// ReadCSV bulk-loads CSV data (see package docs); the load is atomic.
	ReadCSV(r io.Reader) (int, error)
	// WriteCSV dumps the table as CSV with a header row of column names.
	WriteCSV(w io.Writer) error
	// SetMetrics attaches per-table scan instruments (nil counters detach).
	SetMetrics(scans, blockReads, rowsScanned *obs.Counter)
	// Close releases backend resources (a no-op for the in-memory table).
	Close() error
}

// PrepareRow validates a tuple against the relation, coercing values to the
// declared column types, and returns the coerced row and its logical width.
// Shared by every backend's Insert.
func PrepareRow(rel *schema.Relation, r Row, blockSize int) (Row, int, error) {
	if len(r) != len(rel.Columns) {
		return nil, 0, fmt.Errorf("storage: %s expects %d values, got %d",
			rel.Name, len(rel.Columns), len(r))
	}
	row := make(Row, len(r))
	for i, v := range r {
		cv, err := v.CoerceTo(rel.Columns[i].Type)
		if err != nil {
			return nil, 0, fmt.Errorf("storage: %s.%s: %v", rel.Name, rel.Columns[i].Name, err)
		}
		row[i] = cv
	}
	w := row.Width()
	if w > blockSize {
		return nil, 0, fmt.Errorf("storage: row of %d bytes exceeds block size %d", w, blockSize)
	}
	return row, w, nil
}

// ScanBackend drives fn over a full scan of b through Open, so it fires the
// storage.scan fault point and records the pass. Returning false from fn
// stops the scan early.
func ScanBackend(b Backend, fn func(Row) bool) error {
	cur, err := b.Open()
	if err != nil {
		return err
	}
	return drainCursor(cur, fn)
}

// ScanRaw drives fn over a maintenance scan of b (see Backend.OpenRaw).
func ScanRaw(b Backend, fn func(Row) bool) error {
	cur, err := b.OpenRaw()
	if err != nil {
		return err
	}
	return drainCursor(cur, fn)
}

func drainCursor(cur Cursor, fn func(Row) bool) error {
	defer cur.Close()
	for {
		row, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if !fn(row) {
			return nil
		}
	}
}

// AllRows materializes a maintenance scan of b, cloning each row. For
// statistics builders and tests.
func AllRows(b Backend) ([]Row, error) {
	var out []Row
	err := ScanRaw(b, func(r Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out, err
}

// Table is the in-memory heap file: rows packed into blocks in insertion
// order. It implements Backend.
type Table struct {
	rel       *schema.Relation
	rows      []Row
	blockSize int
	tally     BlockTally

	mu      sync.Mutex    // guards indexes
	indexes []*Index      // per column, nil until a query asks (Index)
	metrics *obs.Registry // counts index builds; set by DB.SetMetrics

	// Per-table scan instruments, cached once by DB.SetMetrics so the scan
	// loop records with a single atomic add (nil — a no-op — until then).
	mBlockReads  *obs.Counter
	mRowsScanned *obs.Counter
	mScans       *obs.Counter
}

// NewTable creates an empty heap table for the relation.
func NewTable(rel *schema.Relation, blockSize int) *Table {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &Table{rel: rel, blockSize: blockSize, tally: BlockTally{BlockSize: blockSize}}
}

// Relation returns the table's relation definition.
func (t *Table) Relation() *schema.Relation { return t.rel }

// RowCount returns the number of stored tuples.
func (t *Table) RowCount() int { return len(t.rows) }

// Blocks returns the number of blocks the heap file occupies.
func (t *Table) Blocks() int64 { return t.tally.Blocks }

// BlockSize returns the block size in bytes.
func (t *Table) BlockSize() int { return t.blockSize }

// Insert validates a tuple against the relation and appends it.
// Values are coerced to the declared column types where possible.
func (t *Table) Insert(r Row) error {
	row, w, err := PrepareRow(t.rel, r, t.blockSize)
	if err != nil {
		return err
	}
	t.dropIndexes()
	t.tally.Add(w)
	t.rows = append(t.rows, row)
	return nil
}

// MustInsert is Insert panicking on error; for generators and tests.
func (t *Table) MustInsert(vals ...value.Value) {
	if err := t.Insert(Row(vals)); err != nil {
		panic(err)
	}
}

// Open starts a full scan. The storage.scan fault point fires at open; the
// in-memory store itself cannot fail, so the fault point stands in for the
// read errors a real heap file surfaces.
func (t *Table) Open() (Cursor, error) {
	if err := fault.Inject(fault.StorageScan); err != nil {
		return nil, fmt.Errorf("storage: scan %s: %w", t.rel.Name, err)
	}
	t.mScans.Inc()
	t.mBlockReads.Add(t.tally.Blocks)
	return &memCursor{t: t, metered: true}, nil
}

// OpenRaw starts a maintenance scan: no fault point, no metrics.
func (t *Table) OpenRaw() (Cursor, error) {
	return &memCursor{t: t}, nil
}

// memCursor iterates the heap table's row slice, or one chain of an index.
type memCursor struct {
	t       *Table
	i       int
	ix      *Index // OpenEq's index, nil for a full scan
	at      int32  // its next entry, -1 at the chain's end
	scanned int64
	metered bool
}

func (c *memCursor) Next() (Row, bool, error) {
	var r Row
	switch {
	case c.ix != nil:
		if c.at < 0 {
			return nil, false, nil
		}
		r, c.at = c.ix.Rows[c.at], c.ix.Chain.Next(c.at)
	case c.i < len(c.t.rows):
		r = c.t.rows[c.i]
		c.i++
	default:
		return nil, false, nil
	}
	c.scanned++
	return r, true, nil
}

func (c *memCursor) Close() error {
	if c.metered {
		c.t.mRowsScanned.Add(c.scanned)
	}
	c.scanned = 0
	return nil
}

// Rows returns the backing row slice for read-only access without I/O
// accounting. Used by tests; backend-independent callers use AllRows.
func (t *Table) Rows() []Row { return t.rows }

// SetMetrics attaches per-table scan instruments.
func (t *Table) SetMetrics(scans, blockReads, rowsScanned *obs.Counter) {
	t.mScans, t.mBlockReads, t.mRowsScanned = scans, blockReads, rowsScanned
}

// Close is a no-op for the in-memory table.
func (t *Table) Close() error { return nil }

// DB binds a schema to its per-relation backends.
type DB struct {
	schema    *schema.Schema
	tables    map[string]Backend
	blockSize int
	metrics   *obs.Registry

	memoMu sync.Mutex
	memo   map[any]any // what readers derive from the data and keep with it (Memo)
}

// Memo returns what db keeps under key, first storing mk() there if it keeps
// nothing yet. A reader keeps state derived from the data with the store it
// derives it from, so the state lives as long as the data: the executor's
// base cache is one (exec). Safe for concurrent use.
func (db *DB) Memo(key any, mk func() any) any {
	db.memoMu.Lock()
	defer db.memoMu.Unlock()
	v, ok := db.memo[key]
	if !ok {
		if db.memo == nil {
			db.memo = make(map[any]any)
		}
		v = mk()
		db.memo[key] = v
	}
	return v
}

// SetMetrics attaches a metrics registry to the store: every table scan
// then records storage_scans_total, storage_block_reads_total and
// storage_rows_scanned_total, labeled per table — the rows a cursor yielded,
// which for an equality scan of an in-memory table are its literal's chain
// and for a join that builds from the table's index none. An in-memory
// table counts the indexes it builds in
// storage_index_builds_total{table,column}. Passing nil detaches.
func (db *DB) SetMetrics(reg *obs.Registry) {
	db.metrics = reg
	for name, t := range db.tables {
		if mt, ok := t.(*Table); ok {
			mt.metrics = reg
		}
		if reg == nil {
			t.SetMetrics(nil, nil, nil)
			continue
		}
		t.SetMetrics(
			reg.Counter("storage_scans_total", "table", name),
			reg.Counter("storage_block_reads_total", "table", name),
			reg.Counter("storage_rows_scanned_total", "table", name))
	}
}

// Metrics returns the attached registry (nil when observability is off).
func (db *DB) Metrics() *obs.Registry { return db.metrics }

// NewDB creates an empty in-memory database over the schema with one heap
// table per relation.
func NewDB(s *schema.Schema, blockSize int) *DB {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	db := &DB{schema: s, tables: make(map[string]Backend), blockSize: blockSize}
	for _, r := range s.Relations() {
		db.tables[r.Name] = NewTable(r, blockSize)
	}
	return db
}

// NewDBWith creates a database whose per-relation backends come from open —
// how the persistent block store plugs in underneath the executor. On error
// the backends opened so far are closed.
func NewDBWith(s *schema.Schema, blockSize int, open func(*schema.Relation) (Backend, error)) (*DB, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	db := &DB{schema: s, tables: make(map[string]Backend), blockSize: blockSize}
	for _, r := range s.Relations() {
		b, err := open(r)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.tables[r.Name] = b
	}
	return db, nil
}

// Schema returns the database schema.
func (db *DB) Schema() *schema.Schema { return db.schema }

// BlockSize returns the database block size in bytes.
func (db *DB) BlockSize() int { return db.blockSize }

// Table returns the backend for the relation, or an error.
func (db *DB) Table(name string) (Backend, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: no table %s", name)
	}
	return t, nil
}

// MustTable returns the backend or panics; for generators and tests.
func (db *DB) MustTable(name string) Backend {
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// TotalBlocks sums block counts over all tables.
func (db *DB) TotalBlocks() int64 {
	var n int64
	for _, t := range db.tables {
		n += t.Blocks()
	}
	return n
}

// Close closes every backend, returning the first error.
func (db *DB) Close() error {
	var first error
	for _, t := range db.tables {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
