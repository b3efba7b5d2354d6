package storage_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cqp/internal/obs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/storage"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// goldenDB is the database the executor's golden file is recorded over.
func goldenDB() *storage.DB {
	return workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
}

// kept drains cur through the executor's equality filter on column col.
func kept(t *testing.T, cur storage.Cursor, col int, v value.Value) []storage.Row {
	t.Helper()
	defer cur.Close()
	var out []storage.Row
	for {
		r, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		if query.OpEq.Test(&r[col], &v) {
			out = append(out, r)
		}
	}
}

// checkEq holds an index-served open, after the filter, to the filter over a
// full maintenance scan: the same stored rows, in the same order.
func checkEq(t *testing.T, tb *storage.Table, col int, v value.Value) {
	t.Helper()
	cur, err := tb.OpenEq(col, v)
	if err != nil {
		t.Fatal(err)
	}
	got := kept(t, cur, col, v)
	raw, err := tb.OpenRaw()
	if err != nil {
		t.Fatal(err)
	}
	want := kept(t, raw, col, v)
	name := tb.Relation().Name + "." + tb.Relation().Columns[col].Name + " = " + v.SQL()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows through the index, %d through a scan", name, len(got), len(want))
	}
	for i := range got {
		if &got[i][0] != &want[i][0] {
			t.Fatalf("%s: row %d is %v through the index, %v through a scan", name, i, got[i], want[i])
		}
	}
}

// handTable has the edges the generated data lacks: NULLs, duplicate keys,
// signed zeros and a NaN, and strings with quotes in them.
func handTable(t *testing.T) *storage.Table {
	t.Helper()
	rel, err := schema.NewRelation("T", []schema.Column{
		{Name: "k", Type: value.KindInt},
		{Name: "s", Type: value.KindString},
		{Name: "f", Type: value.KindFloat},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	tb := storage.NewTable(rel, 64)
	for _, r := range []storage.Row{
		{value.Int(1), value.Str("it's"), value.Float(0)},
		{value.Int(2), value.Str("'quoted'"), value.Float(math.Copysign(0, -1))},
		{value.Null(), value.Str(""), value.Null()},
		{value.Int(2), value.Str("it's"), value.Float(2.5)},
		{value.Int(1 << 53), value.Null(), value.Float(math.NaN())},
		{value.Int(-7), value.Str("o''hara"), value.Float(2)},
		{value.Int(2), value.Str("'quoted'"), value.Float(2.5)},
	} {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestIndexMatchesScan: on every column of the golden database, for every
// value it holds and one it does not, and on a hand-built table's edges, an
// equality scan through the column's index keeps exactly the rows a full scan
// keeps, in table order.
func TestIndexMatchesScan(t *testing.T) {
	db := goldenDB()
	for _, rel := range db.Schema().Relations() {
		tb := db.MustTable(rel.Name).(*storage.Table)
		for col, c := range rel.Columns {
			seen := make(map[value.Value]bool)
			for _, r := range tb.Rows() {
				if !seen[r[col]] {
					seen[r[col]] = true
					checkEq(t, tb, col, r[col])
				}
			}
			absent := value.Str("no such value")
			if c.Type == value.KindInt {
				absent = value.Int(-987654321)
			}
			checkEq(t, tb, col, absent)
		}
	}
	tb := handTable(t)
	for col, lits := range [][]value.Value{
		{value.Int(1), value.Int(2), value.Int(3), value.Null(), value.Float(2), value.Float(2.5),
			value.Float(1 << 53), value.Int(1<<53 + 1), value.Int(-7)},
		{value.Str("it's"), value.Str("'quoted'"), value.Str(""), value.Str("o''hara"), value.Str("o'hara"), value.Null()},
		{value.Float(0), value.Float(math.Copysign(0, -1)), value.Int(0), value.Float(math.NaN()), value.Int(2), value.Float(2.5), value.Null()},
	} {
		for _, v := range lits {
			checkEq(t, tb, col, v)
		}
	}
}

// TestIndexDroppedOnChange: an index does not outlive the rows it chains. A
// row inserted after the index was built is found; a CSV load that fails
// mid-file leaves the answers as they were.
func TestIndexDroppedOnChange(t *testing.T) {
	tb := handTable(t)
	count := func(v value.Value) int {
		cur, err := tb.OpenEq(0, v)
		if err != nil {
			t.Fatal(err)
		}
		return len(kept(t, cur, 0, v))
	}
	if n := count(value.Int(5)); n != 0 {
		t.Fatalf("%d rows with k = 5 before the insert", n)
	}
	built := tb.Index(0)
	tb.MustInsert(value.Int(5), value.Str("new"), value.Float(1))
	if n := count(value.Int(5)); n != 1 {
		t.Fatalf("%d rows with k = 5 after inserting one", n)
	}
	if tb.Index(0) == built {
		t.Fatal("Insert kept the index built before it")
	}
	before := count(value.Int(2))
	_, err := tb.ReadCSV(strings.NewReader("k,s,f\n2,loaded,1.5\n6,loaded,1.5\nnot-an-int,x,1\n"))
	if err == nil {
		t.Fatal("a malformed CSV line loaded")
	}
	if n := count(value.Int(2)); n != before {
		t.Errorf("%d rows with k = 2 after a failed load, %d before", n, before)
	}
	if n := count(value.Int(6)); n != 0 {
		t.Errorf("%d rows with k = 6 after a failed load", n)
	}
	checkEq(t, tb, 0, value.Int(2))
}

// TestIndexConcurrentFirstUse: requests that reach a cold column at once
// share one index, built once. Run it under -race.
func TestIndexConcurrentFirstUse(t *testing.T) {
	db := goldenDB()
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	tb := db.MustTable("GENRE").(*storage.Table)
	col := tb.Relation().ColumnIndex("genre")
	v := value.Str(workload.GenreName(1))
	var wg sync.WaitGroup
	got := make([][]storage.Row, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur, err := tb.OpenEq(col, v)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = kept(t, cur, col, v)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if len(got[g]) == 0 || len(got[g]) != len(got[0]) {
			t.Fatalf("goroutine %d kept %d rows, goroutine 0 %d", g, len(got[g]), len(got[0]))
		}
	}
	if n := reg.Counter("storage_index_builds_total", "table", "GENRE", "column", "genre").Value(); n != 1 {
		t.Errorf("GENRE.genre's index built %d times, want once", n)
	}
}
