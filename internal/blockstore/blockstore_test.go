package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cqp/internal/fault"
	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
)

func testSchema() *schema.Schema {
	s := schema.New()
	s.MustAddRelation("ITEM", "id",
		schema.Column{Name: "id", Type: value.KindInt},
		schema.Column{Name: "name", Type: value.KindString},
		schema.Column{Name: "score", Type: value.KindFloat})
	return s
}

func mustOpen(t *testing.T, dir string, blockSize int) *Store {
	t.Helper()
	st, err := Open(dir, testSchema(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func fill(t testing.TB, tbl *Table, n int) {
	t.Helper()
	fillFrom(t, tbl, 0, n)
}

// fillFrom appends rows from..n−1 as fill writes them.
func fillFrom(t testing.TB, tbl *Table, from, n int) {
	t.Helper()
	for i := from; i < n; i++ {
		if err := tbl.Insert(storage.Row{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("item-%05d", i)),
			value.Float(float64(i) / 3),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func collect(t *testing.T, tbl *Table) []storage.Row {
	t.Helper()
	var rows []storage.Row
	if err := storage.ScanRaw(tbl, func(r storage.Row) bool {
		rows = append(rows, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func checkRows(t *testing.T, rows []storage.Row, n int) {
	t.Helper()
	if len(rows) != n {
		t.Fatalf("got %d rows, want %d", len(rows), n)
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d: id %d out of order", i, r[0].AsInt())
		}
		if want := fmt.Sprintf("item-%05d", i); r[1].AsStr() != want {
			t.Fatalf("row %d: name %q, want %q", i, r[1].AsStr(), want)
		}
	}
}

// Insert, scan, reopen, scan again: rows and logical geometry must survive
// a clean close (the many-page path: 512-byte pages force lots of seals).
func TestPersistAndReopen(t *testing.T) {
	dir := t.TempDir()
	const n = 500
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, n)
	checkRows(t, collect(t, tbl), n)
	blocks, rowCount := tbl.Blocks(), tbl.RowCount()
	if blocks == 0 {
		t.Fatal("no logical blocks tallied")
	}
	if tbl.sealed == 0 {
		t.Fatal("expected sealed pages with a 512-byte page size")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, 512)
	defer st2.Close()
	tbl2, _ := st2.Table("ITEM")
	if tbl2.RowCount() != rowCount || tbl2.Blocks() != blocks {
		t.Fatalf("reopen: rows %d blocks %d, want %d/%d",
			tbl2.RowCount(), tbl2.Blocks(), rowCount, blocks)
	}
	checkRows(t, collect(t, tbl2), n)
}

// Appends after reopen must continue the same file and stay ordered.
func TestReopenAppend(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 100)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, 512)
	tbl2, _ := st2.Table("ITEM")
	for i := 100; i < 200; i++ {
		if err := tbl2.Insert(storage.Row{
			value.Int(int64(i)), value.Str(fmt.Sprintf("item-%05d", i)), value.Float(float64(i) / 3),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3 := mustOpen(t, dir, 512)
	defer st3.Close()
	tbl3, _ := st3.Table("ITEM")
	checkRows(t, collect(t, tbl3), 200)
}

// The logical block count must be identical to the in-memory backend for
// the same data — that is what keeps cost estimates and therefore
// personalized answers byte-identical across backends.
func TestLogicalBlocksMatchMemBackend(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, storage.DefaultBlockSize)
	defer st.Close()
	disk, _ := st.Table("ITEM")

	memDB := storage.NewDB(testSchema(), storage.DefaultBlockSize)
	mem := memDB.MustTable("ITEM")

	for i := 0; i < 1000; i++ {
		row := storage.Row{value.Int(int64(i)), value.Str(fmt.Sprintf("item-%05d", i)), value.Float(float64(i))}
		if err := disk.Insert(row); err != nil {
			t.Fatal(err)
		}
		if err := mem.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if disk.Blocks() != mem.Blocks() {
		t.Fatalf("disk %d logical blocks, mem %d", disk.Blocks(), mem.Blocks())
	}
}

// A crash before Sync leaves no manifest (or a stale one); the store must
// rebuild every table from its pages.
func TestRecoveryWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 300)
	// Flush pages but then drop the manifest, simulating a crash after
	// data writes and before the manifest rename.
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, 512)
	defer st2.Close()
	tbl2, _ := st2.Table("ITEM")
	if tbl2.RowCount() != 300 {
		t.Fatalf("recovered %d rows, want 300", tbl2.RowCount())
	}
	checkRows(t, collect(t, tbl2), 300)

	// Geometry must match a fresh in-memory load of the same rows.
	memDB := storage.NewDB(testSchema(), 512)
	mem := memDB.MustTable("ITEM")
	for _, r := range collect(t, tbl2) {
		if err := mem.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if tbl2.Blocks() != mem.Blocks() {
		t.Fatalf("recovered %d logical blocks, mem says %d", tbl2.Blocks(), mem.Blocks())
	}
}

// Flipping a byte inside a sealed page must surface as ErrCorrupt, not as
// wrong rows.
func TestCorruptPageDetected(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 300)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "item.tbl")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a payload byte in the second page.
	if _, err := f.WriteAt([]byte{0xAA}, 512+64); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery-by-scan sees it...
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testSchema(), 512); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rebuild over damage: err = %v, want ErrCorrupt", err)
	}
}

// Corruption in the middle of a query scan must error out of the cursor.
func TestCorruptPageFailsScan(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 300)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Damage the CRC of page 1 behind the open store's back.
	f, err := os.OpenFile(filepath.Join(dir, "item.tbl"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var crc [4]byte
	if _, err := f.ReadAt(crc[:], 512); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(crc[:], binary.LittleEndian.Uint32(crc[:])^1)
	if _, err := f.WriteAt(crc[:], 512); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = storage.ScanRaw(tbl, func(storage.Row) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over damage: err = %v, want ErrCorrupt", err)
	}
	if st.Stats().CRCErrors == 0 {
		t.Fatal("CRC error not counted")
	}
}

// A failed CSV load must roll the table back to its pre-load state, on
// disk as well as in memory.
func TestReadCSVRollback(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	defer st.Close()
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 50)
	blocks, sealed := tbl.Blocks(), tbl.sealed

	var csv strings.Builder
	csv.WriteString("id,name,score\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&csv, "%d,bulk-%d,1.5\n", 1000+i, i)
	}
	csv.WriteString("not-an-int,boom,2.5\n")
	if _, err := tbl.ReadCSV(strings.NewReader(csv.String())); err == nil {
		t.Fatal("bad CSV loaded without error")
	}
	if tbl.RowCount() != 50 || tbl.Blocks() != blocks || tbl.sealed != sealed {
		t.Fatalf("rollback left rows=%d blocks=%d sealed=%d", tbl.RowCount(), tbl.Blocks(), tbl.sealed)
	}
	checkRows(t, collect(t, tbl), 50)

	// And a good load still works afterwards.
	if n, err := tbl.ReadCSV(strings.NewReader("id,name,score\n50,item-00050,1\n")); err != nil || n != 1 {
		t.Fatalf("clean load after rollback: n=%d err=%v", n, err)
	}
	if tbl.RowCount() != 51 {
		t.Fatalf("rows = %d, want 51", tbl.RowCount())
	}
}

// The blockstore.read fault point fires on physical reads: a metered scan
// must fail, and disarming must restore service (transient classification).
func TestBlockstoreReadFault(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	defer st.Close()
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 300)

	plan, err := fault.Parse("blockstore.read:err", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()

	scanErr := storage.ScanBackend(tbl, func(storage.Row) bool { return true })
	if !errors.Is(scanErr, fault.ErrInjected) {
		t.Fatalf("scan under fault: err = %v, want ErrInjected", scanErr)
	}

	fault.Disarm()
	if err := storage.ScanBackend(tbl, func(storage.Row) bool { return true }); err != nil {
		t.Fatalf("scan after disarm: %v", err)
	}
}

// storage.scan fires on metered opens of the disk backend too, and OpenRaw
// (maintenance scans) is exempt from it.
func TestStorageScanFaultAndRawExemption(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 512)
	defer st.Close()
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 50)

	plan, err := fault.Parse("storage.scan:err", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Arm(plan)
	defer fault.Disarm()

	if _, err := tbl.Open(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("metered open under storage.scan fault: err = %v", err)
	}
	if err := storage.ScanRaw(tbl, func(storage.Row) bool { return true }); err != nil {
		t.Fatalf("raw scan must bypass storage.scan fault, got %v", err)
	}
}

// Cursors snapshot the tail at open: sealing the tail mid-scan (an append
// racing is disallowed, but seal reuse of buffers must not corrupt an
// already-open cursor's view).
func TestCursorTailSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, 4096)
	defer st.Close()
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 10)

	cur, err := tbl.OpenRaw()
	if err != nil {
		t.Fatal(err)
	}
	// Force enough inserts to seal the page the cursor's tail points at.
	fill2 := 500
	for i := 0; i < fill2; i++ {
		tbl.MustInsert(value.Int(int64(100+i)), value.Str("later"), value.Float(1))
	}
	var got int
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
	}
	cur.Close()
	if got != 10 {
		t.Fatalf("snapshot cursor saw %d rows, want the 10 present at open", got)
	}
}

// Oversized rows and block-size mismatches fail loudly.
func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testSchema(), 100); err == nil {
		t.Fatal("tiny block size accepted")
	}
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	big := strings.Repeat("x", 2000)
	if err := tbl.Insert(storage.Row{value.Int(1), value.Str(big), value.Float(0)}); err == nil {
		t.Fatal("row larger than a page accepted")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testSchema(), 1024); err == nil {
		t.Fatal("block-size mismatch with manifest accepted")
	}
}
