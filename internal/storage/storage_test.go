package storage

import (
	"testing"
	"testing/quick"

	"cqp/internal/obs"
	"cqp/internal/schema"
	"cqp/internal/value"
)

func testRelation(t *testing.T) *schema.Relation {
	t.Helper()
	r, err := schema.NewRelation("MOVIE", []schema.Column{
		{Name: "mid", Type: value.KindInt},
		{Name: "title", Type: value.KindString},
		{Name: "year", Type: value.KindInt},
	}, "mid")
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRowWidth(t *testing.T) {
	r := Row{value.Int(1), value.Str("abcd"), value.Int(2000)}
	// 8 overhead + 8 + (4+4) + 8 = 32
	if got := r.Width(); got != 32 {
		t.Errorf("Width = %d, want 32", got)
	}
	c := r.Clone()
	c[0] = value.Int(9)
	if r[0].AsInt() != 1 {
		t.Error("Clone must not alias")
	}
}

func TestInsertValidation(t *testing.T) {
	tb := NewTable(testRelation(t), 0)
	if tb.BlockSize() != DefaultBlockSize {
		t.Error("default block size not applied")
	}
	if err := tb.Insert(Row{value.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tb.Insert(Row{value.Str("x"), value.Str("t"), value.Int(1)}); err == nil {
		t.Error("type mismatch should fail")
	}
	// Float that is integral coerces into INT column.
	if err := tb.Insert(Row{value.Float(5), value.Str("t"), value.Int(1999)}); err != nil {
		t.Errorf("coercible insert failed: %v", err)
	}
	if tb.RowCount() != 1 {
		t.Error("row count")
	}
	if tb.Rows()[0][0].Kind() != value.KindInt {
		t.Error("insert must store coerced value")
	}
}

func TestRowTooLarge(t *testing.T) {
	tb := NewTable(testRelation(t), 24)
	err := tb.Insert(Row{value.Int(1), value.Str("this string is far too long"), value.Int(1)})
	if err == nil {
		t.Error("oversized row should fail")
	}
}

func TestBlockAccounting(t *testing.T) {
	// Block of 64 bytes; each row is 8+8+(4+1)+8 = 29 bytes, so 2 rows/block.
	tb := NewTable(testRelation(t), 64)
	for i := 0; i < 5; i++ {
		tb.MustInsert(value.Int(int64(i)), value.Str("t"), value.Int(2000))
	}
	if got := tb.Blocks(); got != 3 {
		t.Errorf("Blocks = %d, want 3 (2 rows per 64-byte block, 5 rows)", got)
	}
}

func TestBlocksMonotoneProperty(t *testing.T) {
	f := func(n uint8) bool {
		tb := NewTable(testRelation(t), 128)
		var prev int64
		for i := 0; i < int(n%64); i++ {
			tb.MustInsert(value.Int(int64(i)), value.Str("title"), value.Int(1990))
			if tb.Blocks() < prev {
				return false
			}
			prev = tb.Blocks()
		}
		// Blocks is 0 iff no rows.
		return (tb.RowCount() == 0) == (tb.Blocks() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScanChargesBlocks(t *testing.T) {
	tb := NewTable(testRelation(t), 64)
	for i := 0; i < 4; i++ {
		tb.MustInsert(value.Int(int64(i)), value.Str("t"), value.Int(2000))
	}
	reg := obs.NewRegistry()
	scans, blocks, rows := reg.Counter("scans"), reg.Counter("blocks"), reg.Counter("rows")
	tb.SetMetrics(scans, blocks, rows)
	var seen int
	if err := ScanBackend(tb, func(Row) bool { seen++; return true }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if seen != 4 {
		t.Errorf("scanned %d rows", seen)
	}
	// An early stop is still one pass over the heap file.
	if err := ScanBackend(tb, func(Row) bool { return false }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if scans.Value() != 2 || blocks.Value() != 2*tb.Blocks() || rows.Value() != 5 {
		t.Errorf("metered %d scans, %d blocks, %d rows; want 2, %d, 5",
			scans.Value(), blocks.Value(), rows.Value(), 2*tb.Blocks())
	}
}

func TestDB(t *testing.T) {
	s := schema.New()
	s.MustAddRelation("A", "", schema.Column{Name: "x", Type: value.KindInt})
	s.MustAddRelation("B", "", schema.Column{Name: "y", Type: value.KindInt})
	db := NewDB(s, 64)
	if db.Schema() != s || db.BlockSize() != 64 {
		t.Error("db accessors")
	}
	a, err := db.Table("A")
	if err != nil {
		t.Fatal(err)
	}
	a.MustInsert(value.Int(1))
	db.MustTable("B").MustInsert(value.Int(2))
	if _, err := db.Table("Z"); err == nil {
		t.Error("missing table should error")
	}
	if db.TotalBlocks() != 2 {
		t.Errorf("TotalBlocks = %d", db.TotalBlocks())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable(Z) should panic")
		}
	}()
	db.MustTable("Z")
}
