package exec

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
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

// tiedUnion is the /execute shape: an all-match union of broad preferences,
// whose answer is a third of the movies, every row tied on doi, of which a
// response ships the top 20.
func tiedUnion(db *storage.DB) ([]*query.Query, []float64) {
	var subs []*query.Query
	for _, tail := range []string{
		" WHERE MOVIE.year >= 1950",
		" WHERE MOVIE.duration <= 150",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre <> 'genre00'",
		" WHERE MOVIE.year <= 1995",
	} {
		subs = append(subs, sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE"+tail))
	}
	return subs, []float64{0.9, 0.8, 0.7, 0.6}
}

// TestExecAllocs is the executor's allocation tripwire: a personalized
// union at L = 10 over the 400-movie database allocates per operator and
// per slab chunk, not per row. The parent of the slab rewrite made 14 324
// allocations for the full union and 12 462 for top-10, the slab rewrite
// 1 176 and 828 over ten join trees, the one-pass union plan 768 and 423;
// with the group tables recycled 679 and 327, and the bounds sit half again
// above that. Since the tie-break compares keys without rendering them
// (value.CompareSQL) it is 260 and 248.
//
// The count barely sees the recycled tables; the bytes do. TotalAlloc of a
// union once the pool is warm: 111 KiB full (the reducers' builds, and the
// kept keys and Matched of 400 rows) and 22 KiB for top-10. A top-10 union
// over a base that joins GENRE allocates 21 KiB. While a tie rendered both
// keys the three were 156, 25 and 24 KiB; while the tagged pass
// left-outer-joined each tag relation, copying its groups into the join's
// build, 213, 82 and 53 KiB (237 and 100 KiB full and top-10 with the
// 48-byte value; 88 KiB over the joined base when every request drained,
// hashed and chained GENRE to build that join). The byte bounds sit at ×1.35
// of today's, below every one of those.
//
// The /execute shape — top-20 of an all-match union, every row tied on doi
// (tiedUnion) — makes 83 allocations and 12 KiB whether the answer has 146
// rows (400 movies) or 606 (1 600): nothing is allocated per ranked row.
// While a tie rendered both keys it made 239 and 702 allocations.
//
// Those were one-pass unions. Each shape now runs cold — on an emptied base
// cache, so it fills B and builds every bitmap — against the same bounds,
// and warm against bounds at what it measures under -race: a cached B and
// cached bitmaps leave the answer's rows and a few slices (full, top-10,
// joined and tied: 30, 21, 24 and 14 allocations and 69.3, 5.6, 6 and 4.5
// KiB; 28, 19, 22 and 13 allocations without -race). Cold, they make 219,
// 210, 161 and 56 allocations and 87, 23, 27 and 13 KiB: a fill sizes its
// tuples' arrays by the larger side of each join and trims them, and the
// reducers of all the bitmaps an evaluation builds share one key set.
func TestExecAllocs(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	large := workload.GenerateDB(workload.DBConfig{Movies: 1600, Directors: 160, Actors: 800, Seed: 151})
	ctx := context.Background()
	subs, dois := allocUnion(db)
	jsubs, jdois := joinedUnion(db)
	tsubs, tdois := tiedUnion(db)
	lsubs, ldois := tiedUnion(large)
	shapes := []struct {
		name     string
		db       *storage.DB
		wantRows int
		run      func() (*UnionResult, error)
		// Bounds on a cold union (allocations, bytes) and on a warm one.
		cold, coldBytes, warm, warmBytes float64
	}{
		{"EvalContext at L=10", db, 300, func() (*UnionResult, error) { return wholePlan(db.Schema(), subs).EvalContext(ctx, db, dois, 1) },
			1020, 149 << 10, 30, 71168},
		{"EvalTopK at L=10, k=10", db, 10, func() (*UnionResult, error) { return wholePlan(db.Schema(), subs).EvalTopK(ctx, db, dois, 1, 10) },
			490, 30 << 10, 21, 5888},
		{"EvalTopK at L=10, k=10 over MOVIE ⋈ GENRE", db, 10, func() (*UnionResult, error) {
			return wholePlan(db.Schema(), jsubs).EvalTopK(ctx, db, jdois, 1, 10)
		}, 440, 29 << 10, 24, 6 << 10},
		{"EvalTopK of a tied all-match union, k=20", db, 100, func() (*UnionResult, error) {
			return wholePlan(db.Schema(), tsubs).EvalTopK(ctx, db, tdois, len(tsubs), 20)
		}, 125, 16 << 10, 14, 4864},
		{"EvalTopK of a tied all-match union at 1600 movies, k=20", large, 400, func() (*UnionResult, error) {
			return wholePlan(large.Schema(), lsubs).EvalTopK(ctx, large, ldois, len(lsubs), 20)
		}, 0, 0, 0, 0},
	}
	measure := func(db *storage.DB, cold bool, wantRows int, fn func() (*UnionResult, error)) (allocs, bytes float64) {
		once := func() {
			res, err := fn()
			if err != nil {
				t.Fatal(err)
			}
			if res.Total < wantRows {
				t.Fatalf("fixture too small: %d union rows, want %d", res.Total, wantRows)
			}
		}
		once() // fills the pool, and the base cache
		// The least of twenty unions: one that found the pool empty — after a
		// collection, or under -race, where sync.Pool drops a Put in four —
		// says nothing about the code.
		allocs, bytes = math.Inf(1), math.Inf(1)
		for i := 0; i < 20; i++ {
			if cold {
				dropBaseCache(db)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			once()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs))
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return allocs, bytes
	}
	var tied [2]float64 // the cold tied top-20's allocations at 400 and 1600 movies
	for i, s := range shapes {
		cold, coldBytes := measure(s.db, true, s.wantRows, s.run)
		warm, warmBytes := measure(s.db, false, s.wantRows, s.run)
		t.Logf("%s: cold %.0f allocs, %.0f bytes; warm %.0f allocs, %.0f bytes", s.name, cold, coldBytes, warm, warmBytes)
		if i >= 3 {
			tied[i-3] = cold
			continue
		}
		if cold > s.cold || coldBytes > s.coldBytes {
			t.Errorf("%s, cold: %.0f allocs and %.0f bytes, bounds %.0f and %.0f", s.name, cold, coldBytes, s.cold, s.coldBytes)
		}
		if warm > s.warm || warmBytes > s.warmBytes {
			t.Errorf("%s, warm: %.0f allocs and %.0f bytes, bounds %.0f and %.0f", s.name, warm, warmBytes, s.warm, s.warmBytes)
		}
	}
	// A small constant slack, not a per-row one: the larger answer has 460
	// more rows to rank.
	if tied[1] > tied[0]+8 {
		t.Errorf("EvalTopK of a tied all-match union, k=20: %.0f allocs at 1600 movies, %.0f at 400; the count must not grow with the answer",
			tied[1], tied[0])
	}
}

// TestUnionAllocsPinned holds allocUnion's full union at the 260 allocations
// it made before reducers were walked from an indexed end (the least of
// twenty unions, as TestExecAllocs counts): TestExecAllocs's bounds sit a
// third above the count, loose enough to let a few per union through. Walking
// the two actor reducers from ACTOR costs nothing and drops two drained
// builds: 254. That was the one-pass plan; a cold union, on an emptied base
// cache, fills B and builds ten bitmaps in 219 (232 under -race), and a warm
// one makes 28 (30 under -race, which pins it).
func TestUnionAllocsPinned(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	subs, dois := allocUnion(db)
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		cold   bool
		pinned uint64
	}{{"cold", true, 260}, {"warm", false, 30}} {
		allocs := uint64(math.MaxUint64)
		for i := 0; i < 21; i++ { // the first fills the pool and the cache
			if c.cold {
				dropBaseCache(db)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := wholePlan(db.Schema(), subs).EvalContext(ctx, db, dois, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				allocs = min(allocs, after.Mallocs-before.Mallocs)
			}
		}
		t.Logf("allocUnion, %s: %d allocations", c.name, allocs)
		if allocs > c.pinned {
			t.Errorf("EvalContext of allocUnion, %s: %d allocations, pinned at %d", c.name, allocs, c.pinned)
		}
	}
}

// BenchmarkEvalUnion is the profiling target for the union path at the
// repo benchmark's scale (execute_cold runs it over 6000 movies): any-match,
// which ranks every group, and all-match, the same pass over the base with a
// handful of rows kept; both return the whole answer, as the library's
// Execute does. All-match allocates about 17 KB per union with the tag
// relations probed in place; 95 % of the 675 KB it allocated before was the
// outer joins copying them into builds. top20 is what /execute runs: the
// first 20 rows of an all-match union whose 2 000-odd rows all tie on doi.
func BenchmarkEvalUnion(b *testing.B) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 6000, Seed: 151})
	subs, dois := allocUnion(db)
	tsubs, tdois := tiedUnion(db)
	for _, c := range []struct {
		name string
		run  func() (*UnionResult, error)
	}{
		{"any", func() (*UnionResult, error) {
			return wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
		}},
		{"all", func() (*UnionResult, error) {
			return wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, len(subs))
		}},
		{"top20", func() (*UnionResult, error) {
			return wholePlan(db.Schema(), tsubs).EvalTopK(context.Background(), db, tdois, len(tsubs), 20)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnionFreshQuery is the base cache's worst case, no reuse at all:
// every iteration plans and runs a query never seen before — allocUnion's
// or joinedUnion's with a fresh literal, MOVIE.year >= −i, in every
// sub-query, so that B is new and filled and every bitmap is built, at the
// repo benchmark's 6 000 movies. first-touch runs it as an execution does,
// on an emptied cache, so that every row mark is computed too; marks-warm
// runs it on a cache that keeps the marks of the same conditions, which a
// new query reuses however new its text; fallback runs the same unions
// under a one-byte budget, which no B fits, one sub-query at a time; warm
// runs one union again and again.
func BenchmarkUnionFreshQuery(b *testing.B) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 6000, Seed: 151})
	ctx := context.Background()
	fallback := iter.WithBudget(ctx, iter.Budget{Bytes: 1, Dir: b.TempDir()})
	seq := 0 // the literals drawn so far, over every run of the benchmark
	for _, shape := range []struct {
		name  string
		union func(*storage.DB) ([]*query.Query, []float64)
	}{{"movie", allocUnion}, {"movie-genre", joinedUnion}} {
		subs, dois := shape.union(db)
		// fresh plans the union with every sub-query also stating year >= −i,
		// a literal no earlier union stated unless i is 0.
		fresh := func(i int) *UnionPlan {
			if i > 0 {
				seq++
				i = seq
			}
			lit := query.Selection{Attr: attrRef("MOVIE", "year"), Op: query.OpGe, Value: value.Int(int64(-i))}
			q, adds := Whole(subs)
			for k := range adds {
				adds[k].Selections = append(slices.Clip(adds[k].Selections), lit)
			}
			return NewUnionPlan(db.Schema(), q, adds)
		}
		run := map[string]func(i int) error{
			"fallback": func(i int) error {
				_, err := fresh(i).EvalTopK(fallback, db, dois, 1, 10)
				return err
			},
			"first-touch": func(i int) error {
				p := fresh(i)
				dropBaseCache(db)
				_, err := p.EvalTopK(ctx, db, dois, 1, 10)
				return err
			},
			"marks-warm": func(i int) error {
				_, err := fresh(i).EvalTopK(ctx, db, dois, 1, 10)
				return err
			},
			"warm": func(int) error {
				_, err := fresh(0).EvalTopK(ctx, db, dois, 1, 10)
				return err
			},
		}
		for _, path := range []string{"fallback", "first-touch", "marks-warm", "warm"} {
			b.Run(shape.name+"/"+path, func(b *testing.B) {
				if err := run[path](0); err != nil { // warms the tables' indexes
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run[path](i + 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
