// Package blockstore is the persistent table backend: heap tables stored
// as files of fixed-size CRC-framed pages, serving databases far bigger
// than RAM through batched sequential scans with reusable cursors.
//
// It implements storage.Backend, so the executor, the catalog builder and
// the serving daemon run unchanged on top of it. Every table advances the
// same storage.BlockTally as the in-memory backend, so Blocks() — what the
// executor's charge and the estimator's cost are computed from — and the
// catalog's statistics are identical for identical data, and a
// personalization returns byte-identical answers on either backend. What
// the disk really did is counted per store: page reads, bytes, and CRC
// failures (Stats, Observe), including early-terminated scans that touched
// fewer pages than the table holds.
//
// File format, per table ("<relation>.tbl", lower-cased): a sequence of
// pageSize-byte pages, each [crc32c u32][rows u16][used u16][payload],
// where the CRC covers the rows/used header fields and the payload. Rows
// are encoded with the sort-preserving codec of encoding.go. The last
// (tail) page may be partially filled; it is rewritten in place as rows
// append. A MANIFEST file (JSON, written atomically on Sync/Close) records
// per-table geometry at the last Sync. Open rebuilds every table by
// scanning its pages, fails loudly on CRC damage, and holds the manifest
// to what the pages hold: a stale one (appends after the last Sync) gives
// way to the pages, one that claims more than they hold is damage.
//
// Mutation (Insert, ReadCSV) must not race with open cursors or other
// mutations; concurrent scans are safe — the serving daemon ingests first,
// then serves read-only, exactly like the in-memory backend.
package blockstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"cqp/internal/fault"
	"cqp/internal/obs"
	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
)

const (
	pageHeaderSize = 8
	// readBatchPages is how many pages one physical read pulls in: scans
	// are sequential, so batching turns per-page syscalls into a handful
	// of large reads.
	readBatchPages = 8
	manifestName   = "MANIFEST"
	manifestVer    = 1
)

// ErrCorrupt marks unrecoverable page or manifest damage. The store
// refuses to guess around it: serving wrong rows silently would poison
// every cost metric and cached answer downstream.
var ErrCorrupt = errors.New("blockstore: corrupt data")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats are physical-plane counters for one store.
type Stats struct {
	PageReads    int64 // physical page reads served to cursors
	BytesRead    int64 // bytes pulled from table files
	PagesWritten int64
	CRCErrors    int64
}

// Store is a directory of persistent tables sharing one manifest.
type Store struct {
	dir       string
	schema    *schema.Schema
	blockSize int
	tables    map[string]*Table

	pageReads    atomic.Int64
	bytesRead    atomic.Int64
	pagesWritten atomic.Int64
	crcErrors    atomic.Int64

	// Optional registry mirrors of the atomic counters (nil until Observe).
	mPageReads, mBytesRead, mPagesWritten, mCRCErrors *obs.Counter
}

type manifest struct {
	Version   int                      `json:"version"`
	BlockSize int                      `json:"block_size"`
	Tables    map[string]tableManifest `json:"tables"`
}

type tableManifest struct {
	Rows     int   `json:"rows"`
	Blocks   int64 `json:"blocks"`
	Used     int   `json:"used"`
	Sealed   int64 `json:"sealed_pages"`
	TailRows int   `json:"tail_rows"`
}

// Open opens (creating as needed) a block store for the schema under dir.
// blockSize ≤ 0 selects storage.DefaultBlockSize; an existing store's
// manifest must agree with a non-zero blockSize. Every table is recovered
// by a scan of its pages and checked against its manifest entry, if any.
func Open(dir string, s *schema.Schema, blockSize int) (*Store, error) {
	if blockSize <= 0 {
		blockSize = storage.DefaultBlockSize
	}
	if blockSize < 512 || blockSize > 65528 {
		return nil, fmt.Errorf("blockstore: block size %d out of [512, 65528]", blockSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	st := &Store{dir: dir, schema: s, blockSize: blockSize, tables: make(map[string]*Table)}
	var man manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &man); err != nil {
			return nil, fmt.Errorf("blockstore: manifest: %w: %v", ErrCorrupt, err)
		}
		if man.Version != manifestVer {
			return nil, fmt.Errorf("blockstore: manifest version %d unsupported", man.Version)
		}
		if man.BlockSize != blockSize {
			return nil, fmt.Errorf("blockstore: store has block size %d, asked for %d", man.BlockSize, blockSize)
		}
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("blockstore: manifest: %w", err)
	}
	for _, rel := range s.Relations() {
		tm, ok := man.Tables[rel.Name]
		t, err := st.openTable(rel, tm, ok)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.tables[rel.Name] = t
	}
	return st, nil
}

// DB wraps the store's tables in a storage.DB over the schema.
func (st *Store) DB() (*storage.DB, error) {
	return storage.NewDBWith(st.schema, st.blockSize, func(rel *schema.Relation) (storage.Backend, error) {
		t, ok := st.tables[rel.Name]
		if !ok {
			return nil, fmt.Errorf("blockstore: no table %s", rel.Name)
		}
		return t, nil
	})
}

// Table returns the persistent table for the relation.
func (st *Store) Table(name string) (*Table, error) {
	t, ok := st.tables[name]
	if !ok {
		return nil, fmt.Errorf("blockstore: no table %s", name)
	}
	return t, nil
}

// Empty reports whether the store holds no rows at all (a fresh directory
// awaiting ingest).
func (st *Store) Empty() bool {
	for _, t := range st.tables {
		if t.rows > 0 {
			return false
		}
	}
	return true
}

// Rows sums row counts over all tables.
func (st *Store) Rows() int {
	n := 0
	for _, t := range st.tables {
		n += t.rows
	}
	return n
}

// Stats snapshots the physical-plane counters.
func (st *Store) Stats() Stats {
	return Stats{
		PageReads:    st.pageReads.Load(),
		BytesRead:    st.bytesRead.Load(),
		PagesWritten: st.pagesWritten.Load(),
		CRCErrors:    st.crcErrors.Load(),
	}
}

// Observe mirrors the physical counters into the registry as
// blockstore_page_reads_total, blockstore_bytes_read_total,
// blockstore_pages_written_total and blockstore_crc_errors_total.
func (st *Store) Observe(reg *obs.Registry) {
	if reg == nil {
		st.mPageReads, st.mBytesRead, st.mPagesWritten, st.mCRCErrors = nil, nil, nil, nil
		return
	}
	st.mPageReads = reg.Counter("blockstore_page_reads_total")
	st.mBytesRead = reg.Counter("blockstore_bytes_read_total")
	st.mPagesWritten = reg.Counter("blockstore_pages_written_total")
	st.mCRCErrors = reg.Counter("blockstore_crc_errors_total")
}

func (st *Store) countRead(pages int64, bytes int64) {
	st.pageReads.Add(pages)
	st.bytesRead.Add(bytes)
	st.mPageReads.Add(pages)
	st.mBytesRead.Add(bytes)
}

// Sync flushes every table's tail page, fsyncs the files, and rewrites the
// manifest atomically (temp + fsync + rename). After Sync returns, a crash
// loses nothing.
func (st *Store) Sync() error {
	for _, t := range st.tables {
		if err := t.flushTail(); err != nil {
			return err
		}
		if err := t.f.Sync(); err != nil {
			return fmt.Errorf("blockstore: sync %s: %w", t.rel.Name, err)
		}
	}
	return st.writeManifest()
}

// Close syncs and closes every table file.
func (st *Store) Close() error {
	var first error
	// Sync only tables that opened successfully (Close also runs on a
	// failed Open).
	if len(st.tables) > 0 {
		if err := st.Sync(); err != nil {
			first = err
		}
	}
	for _, t := range st.tables {
		if err := t.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (st *Store) writeManifest() error {
	man := manifest{Version: manifestVer, BlockSize: st.blockSize, Tables: make(map[string]tableManifest, len(st.tables))}
	for name, t := range st.tables {
		man.Tables[name] = tableManifest{
			Rows:     t.rows,
			Blocks:   t.tally.Blocks,
			Used:     t.tally.Used,
			Sealed:   t.sealed,
			TailRows: len(t.tailRows),
		}
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(st.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("blockstore: manifest: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("blockstore: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("blockstore: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("blockstore: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, manifestName)); err != nil {
		return fmt.Errorf("blockstore: manifest: %w", err)
	}
	return nil
}

// Table is one relation's persistent heap file. It implements
// storage.Backend.
type Table struct {
	store *Store
	rel   *schema.Relation
	f     *os.File
	path  string

	rows   int
	tally  storage.BlockTally
	sealed int64 // full pages on disk

	tailRows []storage.Row // rows of the unsealed tail page
	tailBuf  []byte        // their encoded payload
	scratch  []byte
	pageBuf  []byte

	cursors sync.Pool

	mScans, mBlockReads, mRowsScanned *obs.Counter
}

func (st *Store) openTable(rel *schema.Relation, tm tableManifest, haveMan bool) (*Table, error) {
	path := filepath.Join(st.dir, strings.ToLower(rel.Name)+".tbl")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	t := &Table{store: st, rel: rel, f: f, path: path}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: %w", err)
	}
	size := fi.Size()
	err = t.rebuild(size)
	if err == nil && haveMan {
		err = t.check(tm, size/int64(st.blockSize))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	t.cursors.New = func() any { return &cursor{} }
	return t, nil
}

func tailPages(tailRows int) int64 {
	if tailRows > 0 {
		return 1
	}
	return 0
}

// check holds a manifest entry to the state rebuilt from the file's pages.
// The entry records the last Sync, and appends after it only add rows and
// pages, so the pages must hold at least what it records, and exactly that
// when they hold no more rows. A negative field, more rows, blocks or
// pages than the file holds, or another geometry at the same row count is
// damage.
func (t *Table) check(tm tableManifest, pages int64) error {
	last := pages - tailPages(tm.TailRows) // the sealed pages the entry's tail implies
	ok := min(tm.Rows, tm.Used, tm.TailRows) >= 0 && min(tm.Blocks, tm.Sealed) >= 0 &&
		tm.Rows <= t.rows && tm.Blocks <= t.tally.Blocks && tm.Sealed <= last
	if ok && tm.Rows == t.rows {
		ok = tm.Blocks == t.tally.Blocks && tm.Used == t.tally.Used && tm.Sealed == last &&
			(tm.TailRows == 0 || tm.TailRows == len(t.tailRows))
	}
	if !ok {
		return fmt.Errorf("blockstore: %s: manifest %+v disagrees with %d pages of %d rows: %w",
			t.rel.Name, tm, pages, t.rows, ErrCorrupt)
	}
	return nil
}

// rebuild recovers table state by scanning every page. The last page
// becomes the in-memory tail so appends can continue.
func (t *Table) rebuild(size int64) error {
	ps := int64(t.store.blockSize)
	if size%ps != 0 {
		return fmt.Errorf("blockstore: %s: file size %d not page-aligned: %w", t.rel.Name, size, ErrCorrupt)
	}
	pages := size / ps
	t.tally = storage.BlockTally{BlockSize: t.store.blockSize}
	for p := int64(0); p < pages; p++ {
		rows, buf, err := t.readPage(p, nil)
		if err != nil {
			return fmt.Errorf("blockstore: %s page %d: %w", t.rel.Name, p, err)
		}
		for _, r := range rows {
			t.tally.Add(r.Width())
		}
		t.rows += len(rows)
		if p == pages-1 {
			t.tailRows = rows
			t.tailBuf = append([]byte(nil), buf...)
		}
	}
	if pages > 0 {
		t.sealed = pages - 1
	}
	return nil
}

// readPage reads and verifies one page, returning its decoded rows and raw
// payload. Used by recovery and by ReadCSV rollback, not the scan path.
func (t *Table) readPage(page int64, buf []byte) ([]storage.Row, []byte, error) {
	ps := t.store.blockSize
	if cap(buf) < ps {
		buf = make([]byte, ps)
	}
	buf = buf[:ps]
	if _, err := t.f.ReadAt(buf, page*int64(ps)); err != nil {
		return nil, nil, err
	}
	t.store.countRead(1, int64(ps))
	payload, nrows, err := t.verifyPage(buf)
	if err != nil {
		return nil, nil, err
	}
	rows, err := decodePage(payload, nrows)
	if err != nil {
		return nil, nil, err
	}
	return rows, payload, nil
}

// decodePage decodes the nrows rows of a verified page's payload; a row
// that does not decode is ErrCorrupt.
func decodePage(payload []byte, nrows int) ([]storage.Row, error) {
	rows := make([]storage.Row, 0, nrows)
	for i := 0; i < nrows; i++ {
		r, rest, err := DecodeRow(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		rows, payload = append(rows, r), rest
	}
	return rows, nil
}

// verifyPage checks the CRC frame and returns the payload and row count.
func (t *Table) verifyPage(page []byte) ([]byte, int, error) {
	nrows := int(binary.LittleEndian.Uint16(page[4:6]))
	used := int(binary.LittleEndian.Uint16(page[6:8]))
	if used > len(page)-pageHeaderSize {
		t.store.crcErrors.Add(1)
		t.store.mCRCErrors.Inc()
		return nil, 0, fmt.Errorf("%w: page claims %d payload bytes", ErrCorrupt, used)
	}
	want := binary.LittleEndian.Uint32(page[0:4])
	got := crc32.Checksum(page[4:pageHeaderSize+used], castagnoli)
	if want != got {
		t.store.crcErrors.Add(1)
		t.store.mCRCErrors.Inc()
		return nil, 0, fmt.Errorf("%w: page crc mismatch", ErrCorrupt)
	}
	return page[pageHeaderSize : pageHeaderSize+used], nrows, nil
}

func (t *Table) payloadCap() int { return t.store.blockSize - pageHeaderSize }

// Relation returns the table's relation definition.
func (t *Table) Relation() *schema.Relation { return t.rel }

// RowCount returns the number of stored tuples.
func (t *Table) RowCount() int { return t.rows }

// Blocks returns the table's logical block count under the paper's model
// (identical to the in-memory backend for the same data).
func (t *Table) Blocks() int64 { return t.tally.Blocks }

// BlockSize returns the block (and physical page) size in bytes.
func (t *Table) BlockSize() int { return t.store.blockSize }

// Insert validates, coerces and appends one tuple, sealing the tail page
// to disk when it fills.
func (t *Table) Insert(r storage.Row) error {
	row, w, err := storage.PrepareRow(t.rel, r, t.store.blockSize)
	if err != nil {
		return err
	}
	enc := AppendRow(t.scratch[:0], row)
	t.scratch = enc[:0]
	if len(enc) > t.payloadCap() {
		return fmt.Errorf("blockstore: %s: encoded row of %d bytes exceeds page payload %d",
			t.rel.Name, len(enc), t.payloadCap())
	}
	if len(t.tailBuf)+len(enc) > t.payloadCap() {
		if err := t.sealTail(); err != nil {
			return err
		}
	}
	t.tally.Add(w)
	t.rows++
	t.tailBuf = append(t.tailBuf, enc...)
	t.tailRows = append(t.tailRows, row)
	return nil
}

// MustInsert is Insert panicking on error; for generators and tests.
func (t *Table) MustInsert(vals ...value.Value) {
	if err := t.Insert(storage.Row(vals)); err != nil {
		panic(err)
	}
}

// sealTail writes the full tail page to disk and starts a fresh tail.
func (t *Table) sealTail() error {
	if err := t.writePage(t.sealed); err != nil {
		return err
	}
	t.sealed++
	// Fresh slices, not [:0]: open cursors may still reference the old
	// tail snapshot.
	t.tailRows = nil
	t.tailBuf = t.tailBuf[:0]
	return nil
}

// flushTail persists the partial tail page in place (it is rewritten again
// as more rows arrive).
func (t *Table) flushTail() error {
	if len(t.tailRows) == 0 {
		return nil
	}
	return t.writePage(t.sealed)
}

func (t *Table) writePage(page int64) error {
	ps := t.store.blockSize
	if cap(t.pageBuf) < ps {
		t.pageBuf = make([]byte, ps)
	}
	buf := t.pageBuf[:ps]
	for i := pageHeaderSize + len(t.tailBuf); i < ps; i++ {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(t.tailRows)))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(t.tailBuf)))
	copy(buf[pageHeaderSize:], t.tailBuf)
	crc := crc32.Checksum(buf[4:pageHeaderSize+len(t.tailBuf)], castagnoli)
	binary.LittleEndian.PutUint32(buf[0:4], crc)
	if _, err := t.f.WriteAt(buf, page*int64(ps)); err != nil {
		return fmt.Errorf("blockstore: write %s page %d: %w", t.rel.Name, page, err)
	}
	t.store.pagesWritten.Add(1)
	t.store.mPagesWritten.Inc()
	return nil
}

// Open starts a query-path scan: the storage.scan fault point fires and
// per-table scan metrics record. The cursor itself reads physical pages in
// batches and is recycled across scans.
func (t *Table) Open() (storage.Cursor, error) {
	if err := fault.Inject(fault.StorageScan); err != nil {
		return nil, fmt.Errorf("blockstore: scan %s: %w", t.rel.Name, err)
	}
	t.mScans.Inc()
	t.mBlockReads.Add(t.tally.Blocks)
	return t.newCursor(true), nil
}

// OpenRaw starts a maintenance scan: no storage.scan fault point, no scan
// metrics. Physical reads (and the blockstore.read fault point) still
// apply — the disk is real either way.
func (t *Table) OpenRaw() (storage.Cursor, error) {
	return t.newCursor(false), nil
}

func (t *Table) newCursor(metered bool) *cursor {
	c := t.cursors.Get().(*cursor)
	c.reset(t, metered)
	return c
}

// ReadCSV bulk-loads CSV data. The load is atomic: on error the file is
// truncated back to its pre-call sealed pages and the in-memory tail is
// restored, so no partial rows (or their block accounting) survive.
func (t *Table) ReadCSV(r io.Reader) (int, error) {
	snap := t.snapshot()
	n, err := storage.ReadCSVInto(t, r)
	if err != nil {
		t.restoreSnapshot(snap)
		return 0, err
	}
	return n, nil
}

type tableSnapshot struct {
	rows     int
	tally    storage.BlockTally
	sealed   int64
	tailRows []storage.Row
	tailBuf  []byte
}

func (t *Table) snapshot() tableSnapshot {
	return tableSnapshot{
		rows:     t.rows,
		tally:    t.tally,
		sealed:   t.sealed,
		tailRows: append([]storage.Row(nil), t.tailRows...),
		tailBuf:  append([]byte(nil), t.tailBuf...),
	}
}

func (t *Table) restoreSnapshot(s tableSnapshot) {
	t.rows, t.tally, t.sealed = s.rows, s.tally, s.sealed
	t.tailRows, t.tailBuf = s.tailRows, s.tailBuf
	// Drop pages written past the snapshot; harmless if none were.
	_ = t.f.Truncate(s.sealed * int64(t.store.blockSize))
}

// WriteCSV dumps the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error { return storage.WriteCSVTo(t, w) }

// SetMetrics attaches per-table scan instruments.
func (t *Table) SetMetrics(scans, blockReads, rowsScanned *obs.Counter) {
	t.mScans, t.mBlockReads, t.mRowsScanned = scans, blockReads, rowsScanned
}

// Close flushes the tail page and the store manifest. The shared file
// handle stays open until Store.Close — a DB built over this store may
// close tables in any order while others still serve.
func (t *Table) Close() error {
	if err := t.flushTail(); err != nil {
		return err
	}
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("blockstore: sync %s: %w", t.rel.Name, err)
	}
	return t.store.writeManifest()
}

// cursor is a batched sequential reader over a table's pages, recycled
// through the table's pool ("iterator reuse": a hot serving loop scanning
// the same table allocates no per-scan read buffers after warm-up).
type cursor struct {
	t       *Table
	metered bool

	sealed int64         // snapshot of sealed pages at open
	tail   []storage.Row // snapshot of the tail
	page   int64         // next page to read into the batch buffer

	buf      []byte // batch read buffer (readBatchPages pages)
	bufPages int    // valid pages in buf
	bufIdx   int    // next page within buf

	payload  []byte // remaining payload of the current page
	rowsLeft int
	tailIdx  int
	scanned  int64
	done     bool
}

func (c *cursor) reset(t *Table, metered bool) {
	c.t = t
	c.metered = metered
	c.sealed = t.sealed
	c.tail = t.tailRows
	c.page = 0
	c.bufPages, c.bufIdx = 0, 0
	c.payload = nil
	c.rowsLeft = 0
	c.tailIdx = 0
	c.scanned = 0
	c.done = false
}

// Next returns the next row. Decoded rows are freshly allocated, so the
// caller may retain them.
func (c *cursor) Next() (storage.Row, bool, error) {
	for {
		if c.done {
			return nil, false, nil
		}
		if c.rowsLeft > 0 {
			row, rest, err := DecodeRow(c.payload)
			if err != nil {
				c.done = true
				return nil, false, fmt.Errorf("blockstore: %s: %w: %w", c.t.rel.Name, storage.ErrRead, err)
			}
			c.payload = rest
			c.rowsLeft--
			c.scanned++
			return row, true, nil
		}
		if c.bufIdx < c.bufPages {
			ps := c.t.store.blockSize
			pageBytes := c.buf[c.bufIdx*ps : (c.bufIdx+1)*ps]
			c.bufIdx++
			payload, nrows, err := c.t.verifyPage(pageBytes)
			if err != nil {
				c.done = true
				return nil, false, fmt.Errorf("blockstore: %s: %w: %w", c.t.rel.Name, storage.ErrRead, err)
			}
			c.payload, c.rowsLeft = payload, nrows
			continue
		}
		if c.page < c.sealed {
			if err := c.refill(); err != nil {
				c.done = true
				return nil, false, err
			}
			continue
		}
		// Sealed pages exhausted: serve the tail snapshot.
		if c.tailIdx < len(c.tail) {
			row := c.tail[c.tailIdx]
			c.tailIdx++
			c.scanned++
			return row, true, nil
		}
		c.done = true
		return nil, false, nil
	}
}

// refill performs one batched physical read of up to readBatchPages sealed
// pages. The blockstore.read fault point fires here — one decision per
// physical read, like a real device error.
func (c *cursor) refill() error {
	if err := fault.Inject(fault.BlockstoreRead); err != nil {
		return fmt.Errorf("blockstore: read %s: %w", c.t.rel.Name, err)
	}
	ps := c.t.store.blockSize
	n := c.sealed - c.page
	if n > readBatchPages {
		n = readBatchPages
	}
	want := int(n) * ps
	if cap(c.buf) < want {
		c.buf = make([]byte, readBatchPages*ps)
	}
	if _, err := c.t.f.ReadAt(c.buf[:want], c.page*int64(ps)); err != nil {
		return fmt.Errorf("blockstore: read %s page %d: %w: %w", c.t.rel.Name, c.page, storage.ErrRead, err)
	}
	c.t.store.countRead(n, int64(want))
	c.page += n
	c.bufPages, c.bufIdx = int(n), 0
	return nil
}

// Close records scan metrics and recycles the cursor into the table pool.
func (c *cursor) Close() error {
	if c.t == nil {
		return nil
	}
	if c.metered {
		c.t.mRowsScanned.Add(c.scanned)
	}
	t := c.t
	c.t = nil
	c.tail = nil
	c.payload = nil
	t.cursors.Put(c)
	return nil
}
