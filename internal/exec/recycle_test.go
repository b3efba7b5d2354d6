package exec

import (
	"context"
	"slices"
	"sync"
	"testing"

	"cqp/internal/iter"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// recycleUnions are unions of different key widths, group counts and tag
// relations, so a table recycled from one is the wrong shape for the next.
func recycleUnions(db *storage.DB) [][]*query.Query {
	allocs, _ := allocUnion(db)
	unions := [][]*query.Query{allocs}
	for _, sqls := range [][]string{
		{"SELECT title, year, duration FROM MOVIE WHERE MOVIE.year >= 1990",
			"SELECT title, year, duration FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre <> 'genre00'"},
		{"SELECT DIRECTOR.name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND MOVIE.duration <= 100",
			"SELECT DIRECTOR.name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.did <= 9"},
		{"SELECT MOVIE.mid, title FROM MOVIE, CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.aid <= 3"},
	} {
		var subs []*query.Query
		for _, sql := range sqls {
			subs = append(subs, sqlparse.MustParse(db.Schema(), sql))
		}
		unions = append(unions, subs)
	}
	return unions
}

// scribble is a union made of sentinels: it takes tables out of the pool —
// several at once, as concurrent unions hold theirs —
// overwrites their chunks with rows no answer contains, and hands them back.
func scribble(t *testing.T) {
	var out []*iter.Grouper
	for i := 0; i < 6; i++ {
		g := iter.NewGrouper(context.Background(), 70)
		for k := int64(0); k < 700; k++ {
			row := storage.Row{value.Str("\x00poisoned"), value.Int(-k), value.Str("\x00poisoned")}
			if err := g.Add(row[:1+(i+int(k))%3], int(k)%70); err != nil {
				t.Error(err)
			}
		}
		out = append(out, g)
	}
	for _, g := range out {
		g.Close()
	}
}

// TestGroupTableRecycled: a UnionResult owns what it returns. Union A is
// evaluated and kept; other unions then run through the same pool of group
// tables, and between them the pooled tables are overwritten with sentinels
// (the poisoning idea of TestRowOwnership, applied to the table). A's keys,
// Matched and dois must not have moved — nor anyone else's, with eight
// goroutines doing the same at once (-race), and after a union that spilled.
func TestGroupTableRecycled(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	unions := recycleUnions(db)
	eval := func(ctx context.Context, u int) *UnionResult {
		dois := make([]float64, len(unions[u]))
		for i := range dois {
			dois[i] = 0.9 - 0.05*float64(i)
		}
		res, err := wholePlan(db.Schema(), unions[u]).EvalContext(ctx, db, dois, 1)
		if err != nil {
			t.Error(err)
			return &UnionResult{}
		}
		return res
	}
	render := func(res *UnionResult) []string { return goldenFromUnion("", res).Rows }
	// Rendered at once, before anything else runs: the reference answers.
	want := make([][]string, len(unions))
	for u := range unions {
		if want[u] = render(eval(context.Background(), u)); len(want[u]) == 0 {
			t.Fatalf("fixture: union %d is empty", u)
		}
	}
	rounds := func(ctx context.Context) {
		held := make([]*UnionResult, len(unions))
		for round := 0; round < 3; round++ {
			for u := range unions {
				held[u] = eval(ctx, u)
				scribble(t)
				for h, res := range held {
					if res == nil {
						continue // not evaluated yet
					}
					if got := render(res); !slices.Equal(got, want[h]) {
						t.Errorf("round %d: union %d's kept answer changed after union %d ran: %d rows, want %d; first rows %q, want %q",
							round, h, u, len(got), len(want[h]), got[:min(2, len(got))], want[h][:2])
						return
					}
				}
			}
		}
	}
	rounds(context.Background())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds(context.Background())
		}()
	}
	wg.Wait()

	// A grouper that spills keeps its table; the pool works on around it.
	runs0, _, _ := iter.SpillStats()
	rounds(iter.WithBudget(context.Background(), iter.Budget{Bytes: 2048, Dir: t.TempDir()}))
	if runs1, _, _ := iter.SpillStats(); runs1 == runs0 {
		t.Fatal("fixture: nothing spilled under a 2 KiB budget")
	}
	rounds(context.Background())
}
