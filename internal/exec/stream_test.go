package exec

// Spilled, disk and shared-scan execution returning the same answers as the
// in-memory run is pinned, bit for bit, by TestGoldenExec.

import (
	"context"
	"testing"

	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/testutil"
)

func unionFixture(t *testing.T, db *storage.DB) ([]*query.Query, []float64) {
	t.Helper()
	genres := []string{"comedy", "drama", "horror", "musical"}
	subs := make([]*query.Query, 0, len(genres))
	dois := make([]float64, 0, len(genres))
	for i, g := range genres {
		subs = append(subs, sqlparse.MustParse(db.Schema(),
			"SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = '"+g+"'"))
		dois = append(dois, 0.15*float64(i+1))
	}
	return subs, dois
}

// EvalTopK must return exactly the first k rows of the full ranked
// union, and the same stats.
func TestEvalUnionTopKMatchesFull(t *testing.T) {
	db := testutil.MovieDB(0)
	subs, dois := unionFixture(t, db)
	full, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) < 3 {
		t.Fatalf("fixture too small: %d union rows", len(full.Rows))
	}
	for k := 1; k <= len(full.Rows)+2; k++ {
		topk, err := wholePlan(db.Schema(), subs).EvalTopK(context.Background(), db, dois, 1, k)
		if err != nil {
			t.Fatal(err)
		}
		want := len(full.Rows)
		if k < want {
			want = k
		}
		if len(topk.Rows) != want {
			t.Fatalf("k=%d: %d rows, want %d", k, len(topk.Rows), want)
		}
		for i := range topk.Rows {
			if !iter.EqualRows(topk.Rows[i].Key, full.Rows[i].Key) || topk.Rows[i].Doi != full.Rows[i].Doi {
				t.Fatalf("k=%d row %d: %v (doi %g) != %v (doi %g)", k, i,
					topk.Rows[i].Key, topk.Rows[i].Doi, full.Rows[i].Key, full.Rows[i].Doi)
			}
		}
		if topk.BlockReads != full.BlockReads {
			t.Fatalf("k=%d: io %d != %d", k, topk.BlockReads, full.BlockReads)
		}
	}
	if _, err := wholePlan(db.Schema(), subs).EvalTopK(context.Background(), db, dois, 1, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
}

// LIMIT without ORDER BY pushes into the iterator tree but still charges
// the full scan (the paper's cost model pays per heap file, not per row
// pulled).
func TestLimitChargesFullScan(t *testing.T) {
	db := testutil.MovieDB(0)
	res := evalSQL(t, db, "SELECT title FROM MOVIE LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.BlockReads != db.MustTable("MOVIE").Blocks() {
		t.Fatalf("io = %d, want full scan charge %d", res.BlockReads, db.MustTable("MOVIE").Blocks())
	}
}
