package exec

import (
	"context"
	"strings"
	"testing"

	"cqp/internal/obs"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// TestIndexBuiltOnce: a hundred executions of two unions — over MOVIE, and
// over a base that joins GENRE — build every column index they read once
// (storage_index_builds_total), whichever request came first. An Insert
// drops a table's indexes: the next union builds them again and answers with
// the new rows.
func TestIndexBuiltOnce(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	ctx := context.Background()
	subs, dois := allocUnion(db)
	jsubs, jdois := joinedUnion(db)
	for i := 0; i < 50; i++ {
		if _, err := wholePlan(db.Schema(), subs).EvalContext(ctx, db, dois, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := wholePlan(db.Schema(), jsubs).EvalContext(ctx, db, jdois, 1); err != nil {
			t.Fatal(err)
		}
	}
	builds := func() map[string]int64 {
		out := make(map[string]int64)
		for _, m := range reg.Snapshot() {
			if m.Name == "storage_index_builds_total" {
				out[m.Labels] = m.Value
			}
		}
		return out
	}
	got := builds()
	for _, want := range []string{
		`table="GENRE",column="mid"`,   // the joined base's build
		`table="GENRE",column="genre"`, // the genre reducers' scans
		`table="DIRECTOR",column="name"`,
		`table="ACTOR",column="name"`,
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("no index built on %s; built %v", want, got)
		}
	}
	for labels, n := range got {
		if n != 1 {
			t.Errorf("index {%s} built %d times over 100 executions, want once", labels, n)
		}
	}

	titles := func() string {
		res, err := wholePlan(db.Schema(), jsubs).EvalContext(ctx, db, jdois, 1)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(renderKey(r.Key) + "\n")
		}
		return b.String()
	}
	if strings.Contains(titles(), "Movie new") {
		t.Fatal("the new movie answers before it is inserted")
	}
	db.MustTable("MOVIE").MustInsert(value.Int(100000), value.Str("Movie new"), value.Int(2001), value.Int(90), value.Int(1))
	db.MustTable("GENRE").MustInsert(value.Int(100000), value.Str("genre00"))
	if !strings.Contains(titles(), "'Movie new'") {
		t.Error("a union after the Insert does not see the new movie")
	}
	if n := builds()[`table="GENRE",column="mid"`]; n != 2 {
		t.Errorf("GENRE.mid's index built %d times after an Insert, want twice", n)
	}
}
