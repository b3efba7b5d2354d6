package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cqp/internal/iter"
	"cqp/internal/obs"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/workload"
)

// wholePlan is how a test states a union: its sub-queries whole (Whole),
// planned through the one door the personalizer uses.
func wholePlan(sch *schema.Schema, subs []*query.Query) *UnionPlan {
	q, adds := Whole(subs)
	return NewUnionPlan(sch, q, adds)
}

// TestUnionPhysicalPasses: the union plan reads what the sub-queries share
// once and every relation a sub-query adds once for that sub-query, while
// the charge stays Formula 6's — each sub-query pays every heap file it names.
func TestUnionPhysicalPasses(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	subs, dois := allocUnion(db)
	res, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, dois, 1)
	if err != nil {
		t.Fatal(err)
	}
	naming := make(map[string]int64) // relation → sub-queries that name it
	var charge int64
	for i, s := range subs {
		var own int64
		for _, r := range s.From {
			naming[r]++
			own += db.MustTable(r).Blocks()
		}
		if res.Subs[i].BlockReads != own {
			t.Errorf("sub-query %d charged %d blocks, names %d", i, res.Subs[i].BlockReads, own)
		}
		charge += own
	}
	if res.BlockReads != charge || reg.Counter("exec_block_reads_total").Value() != charge {
		t.Errorf("union charged %d blocks (counter %d), its sub-queries name %d",
			res.BlockReads, reg.Counter("exec_block_reads_total").Value(), charge)
	}
	for rel, n := range naming {
		scans := reg.Counter("storage_scans_total", "table", rel).Value()
		if rel == "MOVIE" {
			n = 1
		}
		if scans < 1 || scans > n {
			t.Errorf("%s opened %d times, want at least once and at most %d", rel, scans, n)
		}
	}
}

// independentUnion is the reference the plan is held against: every
// sub-query evaluated alone as SELECT DISTINCT, the answers merged by key.
func independentUnion(t *testing.T, db *storage.DB, subs []*query.Query) (matched map[string][]int, blocks int64) {
	t.Helper()
	matched = make(map[string][]int)
	for i, s := range subs {
		d := s.Clone()
		d.Distinct = true
		res, err := Eval(db, d)
		if err != nil {
			t.Fatal(err)
		}
		blocks += res.BlockReads
		for _, r := range res.Rows {
			matched[renderKey(r)] = append(matched[renderKey(r)], i)
		}
	}
	return matched, blocks
}

// TestUnionSignedZeroLiterals: hoist finds what sub-queries share by struct
// equality of their selections, and a FLOAT literal's payload is its bits, so
// ">= 0.0" and ">= -0.0" — one condition under Op.Eval — are two selections
// there: neither joins the base. The answer must still be what each
// sub-query returns alone.
func TestUnionSignedZeroLiterals(t *testing.T) {
	db := workload.GenerateDB(workload.DBConfig{Movies: 120, Directors: 12, Actors: 40, Seed: 7})
	var subs []*query.Query
	for _, sql := range []string{
		"SELECT title FROM MOVIE WHERE MOVIE.duration >= 0.0 AND MOVIE.year >= 1990",
		"SELECT title FROM MOVIE WHERE MOVIE.duration >= -0.0 AND MOVIE.year >= 1990",
		"SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00' AND MOVIE.duration >= -0.0",
	} {
		subs = append(subs, sqlparse.MustParse(db.Schema(), sql))
	}
	want, blocks := independentUnion(t, db, subs)
	got, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockReads != blocks || len(got.Rows) != len(want) || len(want) == 0 {
		t.Fatalf("%d keys and %d blocks, want %d and %d", len(got.Rows), got.BlockReads, len(want), blocks)
	}
	for _, r := range got.Rows {
		if fmt.Sprint(r.Matched) != fmt.Sprint(want[renderKey(r.Key)]) {
			t.Errorf("%s matched %v alone, %v in the union", renderKey(r.Key), want[renderKey(r.Key)], r.Matched)
		}
	}
}

// drawUnion draws the sub-queries of one union: they share and add relations
// at random — paths hanging off MOVIE or CAST, conditions on shared columns,
// detached relations, the same relation twice over different joins. Every
// choice is one pick(n) in [0, n), so a *rand.Rand and a fuzz input drive
// the same generator.
func drawUnion(pick func(n int) int) []string {
	choose := func(options ...string) string { return options[pick(len(options))] }
	shared := choose("title FROM MOVIE", "title, year FROM MOVIE", "title, role FROM MOVIE, CAST", "DIRECTOR.name FROM MOVIE, DIRECTOR")
	var sqls []string
	for n := 1 + pick(5); n > 0; n-- {
		from, where := "", []string{}
		has := func(rel string) bool { return strings.Contains(shared+from, rel) }
		if has("CAST") {
			where = append(where, choose("MOVIE.mid = CAST.mid", "CAST.mid = MOVIE.mid"))
		}
		if has("DIRECTOR") {
			where = append(where, "MOVIE.did = DIRECTOR.did")
		}
		for _, part := range perm(pick, 6)[:pick(4)] {
			switch {
			case part == 0:
				where = append(where, choose("MOVIE.year >= 1960", "MOVIE.year < 1990", "MOVIE.duration <= 120", "MOVIE.mid <> 7"))
			case part == 1 && !has("GENRE"):
				from += ", GENRE"
				where = append(where, choose("MOVIE.mid = GENRE.mid", "GENRE.mid = MOVIE.mid", "MOVIE.did = GENRE.mid"),
					"GENRE.genre "+choose("= 'genre00'", "= 'genre01'", "<> 'genre00'", ">= 'genre02'"))
			case part == 2 && !has("DIRECTOR"):
				from += ", DIRECTOR"
				where = append(where, choose("MOVIE.did = DIRECTOR.did", "DIRECTOR.did = 3", "DIRECTOR.did = 99"))
				if pick(2) == 0 {
					where = append(where, "DIRECTOR.did "+choose("<= 4", "> 4", "= 2"))
				}
			case part == 3 && !has("CAST"):
				from += ", CAST, ACTOR"
				where = append(where, "MOVIE.mid = CAST.mid", choose("CAST.aid = ACTOR.aid", "ACTOR.aid = CAST.aid"),
					choose("ACTOR.aid <= 3", "ACTOR.name = 'Actor 00002'", "CAST.role = 'lead'", "ACTOR.aid > 38"))
			case part == 4 && has("CAST") && !has("ACTOR"):
				from += ", ACTOR"
				where = append(where, "CAST.aid = ACTOR.aid", choose("ACTOR.aid <= 5", "ACTOR.aid > 30", "ACTOR.aid = MOVIE.did"))
			case part == 5 && has("CAST") && !has("GENRE"):
				from += ", GENRE"
				where = append(where, "GENRE.mid = CAST.mid", choose("GENRE.mid = MOVIE.mid", "GENRE.genre = 'genre01'", "CAST.aid = GENRE.mid"))
			}
		}
		sql := "SELECT " + shared + from
		if len(where) > 0 {
			sql += " WHERE " + strings.Join(where, " AND ")
		}
		sqls = append(sqls, sql)
	}
	return sqls
}

// perm is math/rand's Perm with pick as its Intn: over a *rand.Rand it draws
// what that generator's Perm would.
func perm(pick func(n int) int, n int) []int {
	m := make([]int, n)
	for i := range m {
		j := pick(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// unionBudget is small enough that the base of nearly every union the
// generator draws outgrows it, so the union runs its sub-queries one at a
// time, and their join builds and the union's group table spill: 287 of
// TestUnionMatchesIndependentEvaluation's 300 budgeted unions run so, and
// they spill 746 times. Unbudgeted, none spills.
const unionBudget = 512

// checkUnion evaluates the union unbudgeted on an emptied base cache, again
// on the cache that filled, and under unionBudget, and holds each to each
// sub-query evaluated alone: every key with exactly the sub-queries that
// return it, at the same charge. The warm answer must be the cold one, field
// for field but its timings.
func checkUnion(t *testing.T, db *storage.DB, trial string, sqls []string) {
	t.Helper()
	var subs []*query.Query
	for _, sql := range sqls {
		subs = append(subs, sqlparse.MustParse(db.Schema(), sql))
	}
	want, blocks := independentUnion(t, db, subs)
	dropBaseCache(db)
	var cold *UnionResult
	for _, ctx := range []context.Context{
		context.Background(),
		context.Background(),
		iter.WithBudget(context.Background(), iter.Budget{Bytes: unionBudget, Dir: t.TempDir()}),
	} {
		got, err := wholePlan(db.Schema(), subs).EvalContext(ctx, db, nil, 1)
		if err != nil {
			t.Fatalf("%s, budget %d: %v\n%s", trial, iter.BudgetFromContext(ctx).Bytes, err, strings.Join(sqls, "\n"))
		}
		if cold == nil {
			cold = got
		} else if iter.BudgetFromContext(ctx).Bytes == 0 && !reflect.DeepEqual(untimed(got), untimed(cold)) {
			t.Fatalf("%s: the warm answer is not the cold one\n%s", trial, strings.Join(sqls, "\n"))
		}
		ok := got.BlockReads == blocks && len(got.Rows) == len(want)
		for _, r := range got.Rows {
			ok = ok && fmt.Sprint(r.Matched) == fmt.Sprint(want[renderKey(r.Key)])
		}
		if !ok {
			t.Fatalf("%s, budget %d: %d keys and %d blocks, want %d and %d, or some key's matches differ\n%s",
				trial, iter.BudgetFromContext(ctx).Bytes, len(got.Rows), got.BlockReads, len(want), blocks,
				strings.Join(sqls, "\n"))
		}
	}
}

// TestUnionMatchesIndependentEvaluation draws 300 unions and requires the
// base cache, cold and warm, and the sub-queries run one at a time under a
// spill budget to match each sub-query evaluated alone.
func TestUnionMatchesIndependentEvaluation(t *testing.T) {
	db := unionDB()
	rng := rand.New(rand.NewSource(18))
	runs0, _, _ := iter.SpillStats()
	for trial := 0; trial < 300; trial++ {
		checkUnion(t, db, fmt.Sprint("trial ", trial), drawUnion(rng.Intn))
	}
	// About 750 runs: the sub-queries' builds and the group tables.
	if runs1, _, _ := iter.SpillStats(); runs1-runs0 < 300 {
		t.Errorf("%d spill runs over 300 budgeted unions", runs1-runs0)
	}
}

// unionDB is the database the drawn unions run over.
func unionDB() *storage.DB {
	return workload.GenerateDB(workload.DBConfig{Movies: 120, Directors: 12, Actors: 40, Seed: 7})
}

// FuzzUnionPlan searches the generator's space instead of sampling it: the
// input's bytes are its choices (each one pick, modulo its range; zero once
// the input runs out).
func FuzzUnionPlan(f *testing.F) {
	db := unionDB()
	f.Fuzz(func(t *testing.T, choices []byte) {
		rest := choices
		checkUnion(t, db, fmt.Sprintf("choices %q", choices), drawUnion(func(n int) int {
			if len(rest) == 0 {
				return 0
			}
			c := int(rest[0]) % n
			rest = rest[1:]
			return c
		}))
	})
}
