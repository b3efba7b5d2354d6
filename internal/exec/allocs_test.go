package exec

import (
	"context"
	"testing"

	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/workload"
)

// allocUnion is a ten-sub-query personalized union in the shape the
// personalizer builds: the base query extended by one preference each,
// reached over zero, one or two joins.
func allocUnion(db *storage.DB) ([]*query.Query, []float64) {
	var subs []*query.Query
	var dois []float64
	for i, tail := range []string{
		" WHERE MOVIE.year >= 1950",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
		", DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0001'",
		" WHERE MOVIE.duration <= 150",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre01'",
		", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre02'",
		", DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0002'",
		", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00002'",
		" WHERE MOVIE.year <= 1995",
	} {
		subs = append(subs, sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE"+tail))
		dois = append(dois, 0.9-0.05*float64(i))
	}
	return subs, dois
}

// TestExecAllocs is the executor's allocation tripwire: a personalized
// union at L = 10 over the 400-movie database allocates per operator and
// per slab chunk, not per row — what is left per ranked row is the one
// rendering of its tie-break key. The parent of the slab rewrite made
// 14 324 allocations for the full union and 12 462 for top-10, the slab
// rewrite 1 176 and 828 over ten join trees; the one-pass union plan makes
// 768 and 423, and the bounds sit half again above that.
func TestExecAllocs(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	subs, dois := allocUnion(db)
	ctx := context.Background()
	run := func(wantRows int, fn func() (*UnionResult, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			res, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) < wantRows {
				t.Fatalf("fixture too small: %d union rows, want %d", len(res.Rows), wantRows)
			}
		})
	}
	full := run(300, func() (*UnionResult, error) { return EvalUnionContext(ctx, db, subs, dois, 1) })
	topk := run(10, func() (*UnionResult, error) { return EvalUnionTopK(ctx, db, subs, dois, 1, 10) })
	t.Logf("union: %.0f allocs; top-10: %.0f allocs", full, topk)
	const fullMax, topkMax = 1150, 640
	if full > fullMax {
		t.Errorf("EvalUnionContext at L=10: %.0f allocs, bound %d", full, fullMax)
	}
	if topk > topkMax {
		t.Errorf("EvalUnionTopK at L=10, k=10: %.0f allocs, bound %d", topk, topkMax)
	}
}

// BenchmarkEvalUnion is the profiling target for the union path at the
// repo benchmark's scale (execute_cold runs it over 6000 movies).
func BenchmarkEvalUnion(b *testing.B) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 6000, Seed: 151})
	subs, dois := allocUnion(db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalUnionContext(context.Background(), db, subs, dois, 1); err != nil {
			b.Fatal(err)
		}
	}
}
