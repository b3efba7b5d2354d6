package blockstore

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzManifest opens a 300-row table file under an arbitrary MANIFEST and
// holds Open to two properties: no input panics it, and a store it opens
// has, in each table, a RowCount equal to the rows a scan returns and a
// block charge that is not negative. testdata/fuzz/FuzzManifest seeds it
// with the manifest the table was closed with and four edits of it: rows
// far beyond the pages, negative rows, negative blocks and negative sealed
// pages.
func FuzzManifest(f *testing.F) {
	tbl, err := os.ReadFile(filepath.Join(closedStore(f), "item.tbl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, man []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "item.tbl"), tbl, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, testSchema(), 512)
		if err != nil {
			return
		}
		defer st.Close()
		checkOpened(t, st)
	})
}
