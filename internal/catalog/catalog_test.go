package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/testutil"
	"cqp/internal/value"
)

func buildTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return MustBuild(testutil.MovieDB(0))
}

func TestTableStats(t *testing.T) {
	c := buildTestCatalog(t)
	ts, err := c.Table("MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	if ts.RowCount != 6 {
		t.Errorf("MOVIE rows = %d, want 6", ts.RowCount)
	}
	if ts.Blocks < 1 {
		t.Errorf("MOVIE blocks = %d", ts.Blocks)
	}
	if c.RowCount("GENRE") != 9 || c.RowCount("NOPE") != 0 {
		t.Error("RowCount wrong")
	}
	if c.Blocks("DIRECTOR") < 1 || c.Blocks("NOPE") != 0 {
		t.Error("Blocks wrong")
	}
	if _, err := c.Table("NOPE"); err == nil {
		t.Error("missing table must error")
	}
}

func TestColumnStats(t *testing.T) {
	c := buildTestCatalog(t)
	ts, _ := c.Table("GENRE")
	cs := ts.Columns["genre"]
	if cs.Distinct != 5 {
		t.Errorf("genre distinct = %d, want 5 (comedy,drama,horror,thriller,musical)", cs.Distinct)
	}
	if got := cs.Frequency(value.Str("comedy")); got != 3 {
		t.Errorf("freq(comedy) = %d, want 3", got)
	}
	if got := cs.Frequency(value.Str("musical")); got != 1 {
		t.Errorf("freq(musical) = %d, want 1", got)
	}
	mts, _ := c.Table("MOVIE")
	ys := mts.Columns["year"]
	if ys.NonNull != 6 {
		t.Errorf("year NonNull = %d", ys.NonNull)
	}
}

func TestEqualitySelectivity(t *testing.T) {
	c := buildTestCatalog(t)
	genre := schema.AttrRef{Relation: "GENRE", Attr: "genre"}
	if got := c.Selectivity(genre, OpEq, value.Str("comedy")); math.Abs(got-3.0/9.0) > 1e-12 {
		t.Errorf("sel(genre=comedy) = %g, want 1/3", got)
	}
	if got := c.Selectivity(genre, OpEq, value.Str("western")); got != 0 {
		t.Errorf("sel(absent value) = %g, want 0", got)
	}
	if got := c.Selectivity(genre, OpNe, value.Str("comedy")); math.Abs(got-6.0/9.0) > 1e-12 {
		t.Errorf("sel(genre<>comedy) = %g, want 2/3", got)
	}
}

func TestRangeSelectivity(t *testing.T) {
	c := buildTestCatalog(t)
	year := schema.AttrRef{Relation: "MOVIE", Attr: "year"}
	lo := c.Selectivity(year, OpLt, value.Int(1958))
	hi := c.Selectivity(year, OpGe, value.Int(1958))
	if lo != 0 {
		t.Errorf("sel(year<min) = %g, want 0", lo)
	}
	if math.Abs(hi-1) > 1e-12 {
		t.Errorf("sel(year>=min) = %g, want 1", hi)
	}
	mid := c.Selectivity(year, OpLe, value.Int(1977))
	if mid <= 0 || mid >= 1 {
		t.Errorf("sel(year<=1977) = %g, want interior value", mid)
	}
	// Non-numeric range falls back.
	name := schema.AttrRef{Relation: "DIRECTOR", Attr: "name"}
	if got := c.Selectivity(name, OpLt, value.Str("M")); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("non-numeric range fallback = %g", got)
	}
}

func TestSelectivityFallbacks(t *testing.T) {
	c := buildTestCatalog(t)
	missing := schema.AttrRef{Relation: "NOPE", Attr: "x"}
	if got := c.Selectivity(missing, OpEq, value.Int(1)); got != 0.1 {
		t.Errorf("unknown eq fallback = %g", got)
	}
	if got := c.Selectivity(missing, OpLt, value.Int(1)); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("unknown range fallback = %g", got)
	}
}

func TestRangeSelectivityBoundsProperty(t *testing.T) {
	c := buildTestCatalog(t)
	year := schema.AttrRef{Relation: "MOVIE", Attr: "year"}
	f := func(y int16) bool {
		v := value.Int(int64(y))
		for _, op := range []Op{OpLt, OpLe, OpGt, OpGe, OpEq, OpNe} {
			s := c.Selectivity(year, op, v)
			if s < 0 || s > 1 || math.IsNaN(s) {
				return false
			}
		}
		// Complementarity of the range model: Lt + Ge covers all non-nulls.
		lt := c.Selectivity(year, OpLt, v)
		ge := c.Selectivity(year, OpGe, v)
		return math.Abs(lt+ge-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinSelectivity(t *testing.T) {
	c := buildTestCatalog(t)
	got := c.JoinSelectivity(
		schema.AttrRef{Relation: "MOVIE", Attr: "did"},
		schema.AttrRef{Relation: "DIRECTOR", Attr: "did"})
	if math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("join sel = %g, want 1/3 (3 distinct dids)", got)
	}
	fallback := c.JoinSelectivity(
		schema.AttrRef{Relation: "NOPE", Attr: "x"},
		schema.AttrRef{Relation: "DIRECTOR", Attr: "did"})
	if fallback != 0.01 {
		t.Errorf("fallback join sel = %g", fallback)
	}
}

func TestSingleValuedColumnRange(t *testing.T) {
	// A column where min == max exercises the degenerate range branches.
	s := schema.New()
	s.MustAddRelation("R", "", schema.Column{Name: "x", Type: value.KindInt})
	db := storageNew(s)
	tb := dbTable(db, "R")
	for i := 0; i < 4; i++ {
		tb.MustInsert(value.Int(7))
	}
	c := MustBuild(db)
	x := schema.AttrRef{Relation: "R", Attr: "x"}
	cases := []struct {
		op   Op
		v    int64
		want float64
	}{
		{OpLt, 8, 1}, {OpLt, 7, 0}, {OpLe, 7, 1}, {OpLe, 6, 0},
		{OpGt, 6, 1}, {OpGt, 7, 0}, {OpGe, 7, 1}, {OpGe, 8, 0},
	}
	for _, tc := range cases {
		if got := c.Selectivity(x, tc.op, value.Int(tc.v)); got != tc.want {
			t.Errorf("single-valued sel(x %v %d) = %g, want %g", tc.op, tc.v, got, tc.want)
		}
	}
}

func TestAllNullColumn(t *testing.T) {
	s := schema.New()
	s.MustAddRelation("R", "", schema.Column{Name: "x", Type: value.KindInt})
	db := storageNew(s)
	tb := dbTable(db, "R")
	for i := 0; i < 3; i++ {
		tb.MustInsert(value.Null())
	}
	c := MustBuild(db)
	x := schema.AttrRef{Relation: "R", Attr: "x"}
	if got := c.Selectivity(x, OpLt, value.Int(5)); got != 0 {
		t.Errorf("all-null range sel = %g, want 0", got)
	}
	if got := c.Selectivity(x, OpEq, value.Int(5)); got != 0 {
		t.Errorf("all-null eq sel = %g, want 0", got)
	}
}

func TestEmptyTableSelectivity(t *testing.T) {
	s := schema.New()
	s.MustAddRelation("R", "", schema.Column{Name: "x", Type: value.KindInt})
	db := storageNew(s)
	c := MustBuild(db)
	x := schema.AttrRef{Relation: "R", Attr: "x"}
	// Empty tables fall back to defaults (rowcount 0).
	if got := c.Selectivity(x, OpEq, value.Int(1)); got != 0.1 {
		t.Errorf("empty-table eq fallback = %g", got)
	}
	if got := c.JoinSelectivity(x, x); got != 0.01 {
		t.Errorf("empty-table join fallback = %g", got)
	}
}

func TestJoinSelectivityAsymmetricDistincts(t *testing.T) {
	c := buildTestCatalog(t)
	// MOVIE.mid has 6 distinct; GENRE.mid has 6 distinct. MOVIE.did has 3,
	// DIRECTOR.did has 3. Cross pair: did (3 distinct) vs mid (6 distinct)
	// uses the max.
	got := c.JoinSelectivity(
		schema.AttrRef{Relation: "MOVIE", Attr: "did"},
		schema.AttrRef{Relation: "MOVIE", Attr: "mid"})
	if math.Abs(got-1.0/6.0) > 1e-12 {
		t.Errorf("join sel = %g, want 1/6 (max of distinct counts)", got)
	}
}

// helpers bridging to storage without importing it at top level twice.
func storageNew(s *schema.Schema) *storage.DB { return storage.NewDB(s, 256) }

func dbTable(db *storage.DB, name string) *storage.Table { return db.MustTable(name).(*storage.Table) }
