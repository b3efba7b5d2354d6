package exec

import (
	"context"
	"math"
	"runtime"
	"strings"
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

// joinedUnion is allocUnion over a base that joins GENRE: the shape of every
// request whose query names GENRE, where the unfiltered GENRE side of the
// base's join is the build a request would otherwise drain, hash and chain.
func joinedUnion(db *storage.DB) ([]*query.Query, []float64) {
	var subs []*query.Query
	var dois []float64
	for i, tail := range []string{
		" WHERE MOVIE.year >= 1950",
		" WHERE GENRE.genre = 'genre00'",
		", DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0001'",
		" WHERE MOVIE.duration <= 150",
		" WHERE GENRE.genre = 'genre01'",
		", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'",
		" WHERE GENRE.genre = 'genre02'",
		", DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0002'",
		", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00002'",
		" WHERE MOVIE.year <= 1995",
	} {
		tail = strings.Replace(tail, " WHERE ", " WHERE MOVIE.mid = GENRE.mid AND ", 1)
		subs = append(subs, sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE, GENRE"+tail))
		dois = append(dois, 0.9-0.05*float64(i))
	}
	return subs, dois
}

// TestExecAllocs is the executor's allocation tripwire: a personalized
// union at L = 10 over the 400-movie database allocates per operator and
// per slab chunk, not per row — what is left per ranked row is the one
// rendering of its tie-break key. The parent of the slab rewrite made
// 14 324 allocations for the full union and 12 462 for top-10, the slab
// rewrite 1 176 and 828 over ten join trees, the one-pass union plan 768
// and 423; with the group tables recycled it is 679 and 327, and the bounds
// sit half again above that.
//
// The count barely sees the recycled tables; the bytes do. TotalAlloc of a
// union once the pool is warm: 156 KiB full (the reducers' builds, and the
// kept keys, Matched and tie-break strings of 400 rows) and 25 KiB for
// top-10. A top-10 union over a base that joins GENRE allocates 24 KiB. While
// the tagged pass left-outer-joined each tag relation, copying its groups
// into the join's build, the three were 213, 82 and 53 KiB (237 and 100 KiB
// full and top-10 with the 48-byte value; 88 KiB over the joined base when
// every request drained, hashed and chained GENRE to build that join). The
// byte bounds sit at ×1.35 of today's, below every one of those.
func TestExecAllocs(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	subs, dois := allocUnion(db)
	ctx := context.Background()
	run := func(wantRows int, fn func() (*UnionResult, error)) (allocs, bytes float64) {
		once := func() {
			res, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) < wantRows {
				t.Fatalf("fixture too small: %d union rows, want %d", len(res.Rows), wantRows)
			}
		}
		allocs = testing.AllocsPerRun(20, once) // its warm-up run and these fill the pool
		// The least of twenty unions: one that found the pool empty — after a
		// collection, or under -race, where sync.Pool drops a Put in four —
		// says nothing about the code.
		bytes = math.Inf(1)
		for i := 0; i < 20; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			once()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	full, fullBytes := run(300, func() (*UnionResult, error) { return EvalUnionContext(ctx, db, subs, dois, 1) })
	topk, topkBytes := run(10, func() (*UnionResult, error) { return EvalUnionTopK(ctx, db, subs, dois, 1, 10) })
	jsubs, jdois := joinedUnion(db)
	joined, joinedBytes := run(10, func() (*UnionResult, error) { return EvalUnionTopK(ctx, db, jsubs, jdois, 1, 10) })
	t.Logf("union: %.0f allocs, %.0f bytes; top-10: %.0f allocs, %.0f bytes; joined base: %.0f allocs, %.0f bytes",
		full, fullBytes, topk, topkBytes, joined, joinedBytes)
	const fullMax, topkMax, joinedMax = 1020, 490, 440
	const fullBytesMax, topkBytesMax, joinedBytesMax = 211 << 10, 33 << 10, 32 << 10
	if full > fullMax || fullBytes > fullBytesMax {
		t.Errorf("EvalUnionContext at L=10: %.0f allocs and %.0f bytes, bounds %d and %d", full, fullBytes, fullMax, fullBytesMax)
	}
	if topk > topkMax || topkBytes > topkBytesMax {
		t.Errorf("EvalUnionTopK at L=10, k=10: %.0f allocs and %.0f bytes, bounds %d and %d", topk, topkBytes, topkMax, topkBytesMax)
	}
	if joined > joinedMax || joinedBytes > joinedBytesMax {
		t.Errorf("EvalUnionTopK at L=10, k=10 over MOVIE ⋈ GENRE: %.0f allocs and %.0f bytes, bounds %d and %d",
			joined, joinedBytes, joinedMax, joinedBytesMax)
	}
}

// BenchmarkEvalUnion is the profiling target for the union path at the
// repo benchmark's scale (execute_cold runs it over 6000 movies): any-match,
// which ranks every group, and all-match, which is what execute_cold sends —
// the same pass over the base, a handful of rows kept. All-match allocates
// about 17 KB per union with the tag relations probed in place; 95 % of the
// 675 KB it allocated before was the outer joins copying them into builds.
func BenchmarkEvalUnion(b *testing.B) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 6000, Seed: 151})
	subs, dois := allocUnion(db)
	for _, c := range []struct {
		name       string
		minMatches int
	}{{"any", 1}, {"all", len(subs)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EvalUnionContext(context.Background(), db, subs, dois, c.minMatches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
