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

// renderPlan writes a union's one-pass plan out: the base, then per
// sub-query its conditions over the base's columns, then per tag relation
// what it attaches at and the reducer behind each sub-query's bit.
func renderPlan(u *UnionPlan) string {
	p := u.onePass()
	var b strings.Builder
	fmt.Fprintf(&b, "base: %s\n", p.base.SQL())
	for i, res := range p.residual {
		fmt.Fprintf(&b, "sub %d:", i)
		for _, sel := range res.Selections {
			fmt.Fprintf(&b, " [%s]", sel)
		}
		for _, j := range res.Joins {
			fmt.Fprintf(&b, " [%s]", j)
		}
		b.WriteString("\n")
	}
	for ti, t := range p.tags {
		fmt.Fprintf(&b, "tag %d on %v\n", ti, t.on)
		for _, r := range t.reducers {
			fmt.Fprintf(&b, "  sub %d: %s\n", r.sub, r.q.SQL())
		}
	}
	return b.String()
}

// TestUnionFactor pins the factoring step on hand-written sub-queries.
func TestUnionFactor(t *testing.T) {
	sch := workload.Schema()
	for _, c := range []struct {
		name, project string
		tails         []string
		want          string
	}{
		{"disjoint extra relations fold by attachment", "title FROM MOVIE", []string{
			", GENRE WHERE MOVIE.year >= 1950 AND MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
			", DIRECTOR WHERE MOVIE.year >= 1950 AND DIRECTOR.did = MOVIE.did AND DIRECTOR.name = 'Director 0001'",
			", CAST, ACTOR WHERE MOVIE.year >= 1950 AND MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'",
			", GENRE WHERE MOVIE.year >= 1950 AND GENRE.mid = MOVIE.mid AND GENRE.genre = 'genre01'",
		}, `base: SELECT MOVIE.title, MOVIE.mid, MOVIE.did FROM MOVIE WHERE MOVIE.year >= 1950
sub 0:
sub 1:
sub 2:
sub 3:
tag 0 on [MOVIE.mid]
  sub 0: SELECT GENRE.mid FROM GENRE WHERE GENRE.genre = 'genre00'
  sub 2: SELECT CAST.mid FROM CAST, ACTOR WHERE CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'
  sub 3: SELECT GENRE.mid FROM GENRE WHERE GENRE.genre = 'genre01'
tag 1 on [MOVIE.did]
  sub 1: SELECT DIRECTOR.did FROM DIRECTOR WHERE DIRECTOR.name = 'Director 0001'
`},
		{"a sub-query equal to the base has no parts", "title FROM MOVIE, DIRECTOR", []string{
			" WHERE MOVIE.did = DIRECTOR.did",
			" WHERE DIRECTOR.did = MOVIE.did AND DIRECTOR.name = 'Director 0001'",
		}, `base: SELECT MOVIE.title, DIRECTOR.name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did
sub 0:
sub 1: [DIRECTOR.name = 'Director 0001']
`},
		{"no common selection: every selection is residual", "title FROM MOVIE", []string{
			" WHERE MOVIE.year >= 1950 AND MOVIE.duration <= 100",
			" WHERE MOVIE.year >= 1960",
		}, `base: SELECT MOVIE.title, MOVIE.year, MOVIE.duration FROM MOVIE
sub 0: [MOVIE.year >= 1950] [MOVIE.duration <= 100]
sub 1: [MOVIE.year >= 1960]
`},
		{"composite attachment, and a join only one sub-query states", "title FROM MOVIE, CAST", []string{
			", GENRE WHERE MOVIE.mid = CAST.mid AND GENRE.mid = MOVIE.mid AND CAST.mid = GENRE.mid AND GENRE.genre = 'genre00'",
			" WHERE MOVIE.mid = CAST.mid AND MOVIE.did = CAST.aid",
		}, `base: SELECT MOVIE.title, MOVIE.mid, CAST.mid, MOVIE.did, CAST.aid FROM MOVIE, CAST WHERE MOVIE.mid = CAST.mid
sub 0:
sub 1: [MOVIE.did = CAST.aid]
tag 0 on [MOVIE.mid CAST.mid]
  sub 0: SELECT GENRE.mid, GENRE.mid FROM GENRE WHERE GENRE.genre = 'genre00'
`},
		{"disconnected components are existence tests", "title FROM MOVIE", []string{
			", DIRECTOR WHERE DIRECTOR.did = 3",
			", CAST, ACTOR WHERE CAST.aid = ACTOR.aid AND ACTOR.aid = 7",
			", GENRE, DIRECTOR WHERE MOVIE.mid = GENRE.mid AND DIRECTOR.did = 9999",
		}, `base: SELECT MOVIE.title, MOVIE.mid FROM MOVIE
sub 0:
sub 1:
sub 2:
tag 0 on []
  sub 0: SELECT  FROM DIRECTOR WHERE DIRECTOR.did = 3
  sub 1: SELECT  FROM CAST, ACTOR WHERE CAST.aid = ACTOR.aid AND ACTOR.aid = 7
  sub 2: SELECT  FROM DIRECTOR WHERE DIRECTOR.did = 9999
tag 1 on [MOVIE.mid]
  sub 2: SELECT GENRE.mid FROM GENRE
`},
		{"two components at one attachment must both hold: a relation each", "title FROM MOVIE", []string{
			", GENRE, CAST WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre01' AND MOVIE.mid = CAST.mid AND CAST.aid <= 3",
			", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
			", CAST WHERE MOVIE.year >= 1990 AND MOVIE.mid = CAST.mid AND CAST.aid = 9",
			"",
		}, `base: SELECT MOVIE.title, MOVIE.mid, MOVIE.year FROM MOVIE
sub 0:
sub 1:
sub 2: [MOVIE.year >= 1990]
sub 3:
tag 0 on [MOVIE.mid]
  sub 0: SELECT GENRE.mid FROM GENRE WHERE GENRE.genre = 'genre01'
  sub 1: SELECT GENRE.mid FROM GENRE WHERE GENRE.genre = 'genre00'
  sub 2: SELECT CAST.mid FROM CAST WHERE CAST.aid = 9
tag 1 on [MOVIE.mid]
  sub 0: SELECT CAST.mid FROM CAST WHERE CAST.aid <= 3
`},
	} {
		var subs []*query.Query
		for _, tail := range c.tails {
			subs = append(subs, sqlparse.MustParse(sch, "SELECT "+c.project+tail))
		}
		if got := renderPlan(wholePlan(sch, subs)); got != c.want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, got, c.want)
		}
	}
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

// TestUnionSignedZeroLiterals: derive finds what sub-queries share by struct
// equality of their selections, and a FLOAT literal's payload is its bits, so
// ">= 0.0" and ">= -0.0" — one condition under Op.Eval — are two selections
// there: neither joins the base, each stays its sub-query's residual. The
// answer must still be what each sub-query returns alone.
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
	if p := wholePlan(db.Schema(), subs); len(p.base.Selections) != 0 || len(p.onePass().residual[0].Selections) != 2 || len(p.onePass().residual[1].Selections) != 2 {
		t.Errorf("signed zeros shared a selection:\n%s", renderPlan(p))
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

// unionBudget is small enough that most tag relations the generator draws
// spill (and with them the base's builds and the union's group table), large
// enough that a relation of a few keys stays in memory beside one that spills:
// of the 409 tag relations TestUnionMatchesIndependentEvaluation's unions
// build, 267 spill under it, and 87 of its unions hold both kinds. Unbudgeted,
// none spills.
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
			t.Fatalf("%s, budget %d: %d keys and %d blocks, want %d and %d, or some key's matches differ\n%s\n%s",
				trial, iter.BudgetFromContext(ctx).Bytes, len(got.Rows), got.BlockReads, len(want), blocks,
				strings.Join(sqls, "\n"), renderPlan(wholePlan(db.Schema(), subs)))
		}
	}
}

// TestUnionMatchesIndependentEvaluation draws 300 unions and requires the
// one-pass plan to match each sub-query evaluated alone, in memory and with
// its tag relations spilled.
func TestUnionMatchesIndependentEvaluation(t *testing.T) {
	db := unionDB()
	rng := rand.New(rand.NewSource(18))
	runs0, _, _ := iter.SpillStats()
	for trial := 0; trial < 300; trial++ {
		checkUnion(t, db, fmt.Sprint("trial ", trial), drawUnion(rng.Intn))
	}
	// About 1 100 runs: tag relations, builds and group tables.
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
