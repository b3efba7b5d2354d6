package blockstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cqp/internal/storage"
)

// closedStore writes a 300-row ITEM table on 512-byte pages into a fresh
// directory and closes it, leaving its MANIFEST behind.
func closedStore(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, testSchema(), 512)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := st.Table("ITEM")
	fill(t, tbl, 300)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkOpened holds an opened store to what its pages hold: each table's
// RowCount is the number of rows a scan returns, and its block charge is
// not negative.
func checkOpened(t *testing.T, st *Store) {
	t.Helper()
	for name, tbl := range st.tables {
		n := 0
		if err := storage.ScanRaw(tbl, func(storage.Row) bool { n++; return true }); err != nil {
			t.Fatalf("%s: scan: %v", name, err)
		}
		if tbl.RowCount() != n || tbl.Blocks() < 0 {
			t.Fatalf("%s: RowCount %d, a scan returns %d rows; Blocks %d", name, tbl.RowCount(), n, tbl.Blocks())
		}
	}
}

// A MANIFEST entry that disagrees with its table file is damage: Open
// fails with ErrCorrupt rather than take a row count, a block charge or a
// page offset that the pages do not hold.
func TestManifestDisagreementIsCorrupt(t *testing.T) {
	for _, c := range []struct {
		field string
		v     int
	}{{"rows", 900000}, {"rows", -5}, {"blocks", -3}, {"sealed_pages", -2}} {
		dir := closedStore(t)
		path := filepath.Join(dir, manifestName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		man["tables"].(map[string]any)["ITEM"].(map[string]any)[c.field] = c.v
		if raw, err = json.Marshal(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, testSchema(), 512)
		if err == nil {
			t.Errorf("%s = %d: opened with RowCount %d, Blocks %d; want ErrCorrupt",
				c.field, c.v, st.tables["ITEM"].RowCount(), st.tables["ITEM"].Blocks())
			st.Close()
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s = %d: Open err = %v, want ErrCorrupt", c.field, c.v, err)
		}
	}
}

// A MANIFEST from an earlier Sync, behind appends that sealed pages before
// a crash, is stale, not damaged: the pages stand.
func TestStaleManifestPagesStand(t *testing.T) {
	dir := closedStore(t)
	path := filepath.Join(dir, manifestName)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st := mustOpen(t, dir, 512)
	tbl, _ := st.Table("ITEM")
	fillFrom(t, tbl, 300, 500)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir, 512)
	defer st2.Close()
	tbl2, _ := st2.Table("ITEM")
	checkRows(t, collect(t, tbl2), 500)
	checkOpened(t, st2)
}
