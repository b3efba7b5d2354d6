package exec

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cqp/internal/blockstore"
	"cqp/internal/iter"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// updateGolden regenerates testdata/golden_exec.json. The file records what
// the executor answered at the commit it was generated on, so it is only
// ever regenerated on the PARENT of a change to internal/iter, internal/exec
// or internal/value — never on the change itself, which must pass it
// unmodified.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_exec.json from the current code")

const (
	goldenPath = "testdata/golden_exec.json"
	// goldenSpillBytes is the budget of the spilled path. The issue names
	// 64 KiB, which a 400-movie database never outgrows; at 4 KiB the join
	// builds, the DISTINCT sets and the union's group table all spill.
	goldenSpillBytes = 4 << 10
)

// goldenCase is one query of the grid pinned bit for bit. All four
// execution paths (mem, disk, spill, share) must give this same record, so
// it is stored once.
type goldenCase struct {
	Case string `json:"case"`
	// Rows renders every answer row in order: the key's SQL literals, and
	// for ranked rows the matched sub-queries and the doi's IEEE-754 bits.
	Rows       []string    `json:"rows"`
	BlockReads int64       `json:"block_reads"`
	Subs       []goldenSub `json:"subs,omitempty"`
}

type goldenSub struct {
	Rows       int   `json:"rows"`
	BlockReads int64 `json:"block_reads"`
}

func renderKey(r storage.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.SQL()
	}
	return strings.Join(parts, "|")
}

func goldenFromUnion(name string, res *UnionResult) goldenCase {
	c := goldenCase{Case: name, Rows: []string{}, BlockReads: res.BlockReads}
	for _, r := range res.Rows {
		c.Rows = append(c.Rows, fmt.Sprintf("%s m=%v doi=%016x", renderKey(r.Key), r.Matched, math.Float64bits(r.Doi)))
	}
	for _, s := range res.Subs {
		c.Subs = append(c.Subs, goldenSub{Rows: s.Rows, BlockReads: s.BlockReads})
	}
	return c
}

func goldenFromResult(name string, res *Result) goldenCase {
	c := goldenCase{Case: name, Rows: []string{}, BlockReads: res.BlockReads}
	for _, r := range res.Rows {
		c.Rows = append(c.Rows, renderKey(r))
	}
	return c
}

// goldenQuery is one entry of the grid: a name, how to run it, and what the
// spilled path owes relative to the others ("" and "same": the same rows in
// the same order; see goldenPlain).
type goldenQuery struct {
	name  string
	spill string
	run   func(ctx context.Context, db *storage.DB) (goldenCase, error)
}

// goldenBases are the queries the personalized unions extend: one and two
// projected columns, a build-side column projected first, numeric keys
// (whose tie-break is lexicographic on the rendered literal), a base that
// already joins a relation the preferences reach, and heavy duplication.
var goldenBases = []string{
	"SELECT title FROM MOVIE",
	"SELECT name, title FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND MOVIE.year >= 1950",
	"SELECT mid, title FROM MOVIE WHERE MOVIE.duration <= 130",
	"SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.year >= 1935",
	"SELECT year, duration FROM MOVIE",
}

// goldenPlain are conjunctive queries run through EvalContext: DISTINCT,
// ORDER BY + LIMIT, a pushed-down LIMIT, a cyclic query (residual join), a
// disconnected one (Cross), a four-way join and a duplicate-preserving join.
//
// A spilled operator emits in partition order, so without a total ORDER BY
// the spilled path owes the same multiset of rows (spill "multiset"), and
// under a pushed-down LIMIT only the same number of them (spill "count").
var goldenPlain = []struct{ name, spill, sql string }{
	{"distinct-join", "multiset", "SELECT DISTINCT name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did"},
	{"distinct-numeric", "multiset", "SELECT DISTINCT year, duration FROM MOVIE WHERE MOVIE.year >= 1980"},
	{"order-limit", "same", "SELECT title, year FROM MOVIE WHERE MOVIE.year >= 1960 ORDER BY year DESC, title LIMIT 25"},
	{"order-distinct", "same", "SELECT DISTINCT year FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid ORDER BY year"},
	{"limit-pushed", "count", "SELECT title, genre FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid LIMIT 7"},
	{"cyclic", "multiset", "SELECT title, role FROM MOVIE, CAST, GENRE WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND CAST.mid = GENRE.mid AND MOVIE.year >= 1990"},
	{"cross", "multiset", "SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.year >= 2005 AND DIRECTOR.did <= 3"},
	{"four-way", "multiset", "SELECT ACTOR.name, title, DIRECTOR.name FROM MOVIE, CAST, ACTOR, DIRECTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND MOVIE.did = DIRECTOR.did AND MOVIE.year >= 2000"},
	{"duplicates", "multiset", "SELECT genre FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.year >= 1995"},
}

// goldenAccess are conjunctive queries whose equality selections an
// in-memory table can answer from a per-column hash index, at its edges: a
// literal no row holds, a duplicated string column, the seed relation of a
// join, a filtered build side, a NULL literal (which matches nothing), and
// FLOAT literals against an INT column (an integral one that matches, and one
// that cannot). They are recorded after every other case.
var goldenAccess = []struct{ name, spill, sql string }{
	{"absent", "same", "SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'no such genre'"},
	{"absent-seed", "same", "SELECT title, year FROM MOVIE WHERE MOVIE.title = 'No Such Movie'"},
	{"duplicated-string", "same", "SELECT mid, genre FROM GENRE WHERE GENRE.genre = 'genre01'"},
	{"seed", "multiset", "SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND MOVIE.did = 3"},
	{"filtered-build", "multiset", "SELECT title, name FROM MOVIE, DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0001'"},
	{"both-sides", "multiset", "SELECT title, genre FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.did = 2 AND GENRE.genre = 'genre00'"},
	{"null-literal", "same", "SELECT title FROM MOVIE WHERE MOVIE.did = NULL"},
	{"float-on-int", "same", "SELECT title, year FROM MOVIE WHERE MOVIE.year = 1950.0"},
	{"fraction-on-int", "same", "SELECT title, year FROM MOVIE WHERE MOVIE.year = 1950.5"},
}

// goldenShapes are personalized unions written out sub-query by sub-query,
// for the shapes the preference grid above does not produce: what the
// sub-queries share and what each adds is what a union-aware plan factors on,
// so each entry varies that split. tails extend "SELECT <project> FROM <from>";
// runs lists the (minMatches, k) pairs to record, minMatches 0 meaning all.
var goldenShapes = []struct {
	name    string
	project string
	tails   []string
	runs    [][2]int
}{
	// A merged sub-query (rewrite.ConstructMerged's shape: two preferences on
	// one functional path plus a selection on the anchor) beside
	// single-preference ones: every condition of sub-query 0 must hold at once.
	{"merged", "title FROM MOVIE", []string{
		", DIRECTOR WHERE MOVIE.did = DIRECTOR.did AND DIRECTOR.did <= 6 AND DIRECTOR.name <> 'Director 0002' AND MOVIE.year >= 1950",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
		" WHERE MOVIE.duration <= 150",
	}, [][2]int{{0, 0}, {1, 0}}},
	// The shared part joins CAST, which repeats a movie once per credit, and
	// the preferences hang off CAST, MOVIE and both at once (GENRE.mid against
	// MOVIE.mid and CAST.mid: a two-column attachment).
	{"cast-base", "title, role FROM MOVIE, CAST", []string{
		", ACTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'",
		", ACTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00002'",
		", ACTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00003'",
		", GENRE WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
		", GENRE WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND GENRE.mid = MOVIE.mid AND GENRE.mid = CAST.mid AND GENRE.genre = 'genre01'",
		", DIRECTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.year >= 1990 AND MOVIE.did = DIRECTOR.did AND DIRECTOR.did <= 4",
	}, [][2]int{{1, 0}, {2, 0}, {1, 10}}},
	// Every sub-query names the same relations and joins; they differ in one
	// selection on the far end (TestSpillCutsWorkingSet's shape).
	{"same-path", "title FROM MOVIE, CAST, ACTOR", []string{
		" WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'",
		" WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00002'",
		" WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00003'",
		" WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.aid <= 4",
	}, [][2]int{{1, 0}, {2, 0}, {0, 0}}},
	// One sub-query is exactly what the others share.
	{"equals-base", "title FROM MOVIE", []string{
		" WHERE MOVIE.year >= 1960",
		", GENRE WHERE MOVIE.year >= 1960 AND MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
		" WHERE MOVIE.year >= 1960 AND MOVIE.duration <= 120",
	}, [][2]int{{1, 0}, {0, 0}}},
	// One sub-query adds two unrelated relations; another adds two that hang
	// off the same attribute (both must hold, not either).
	{"two-components", "title FROM MOVIE", []string{
		", GENRE, DIRECTOR WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00' AND MOVIE.did = DIRECTOR.did AND DIRECTOR.did <= 5",
		", GENRE, CAST, ACTOR WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre01' AND MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.aid <= 3",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
	}, [][2]int{{1, 0}, {2, 0}}},
	// A relation joined to nothing (a cross product in the sub-query: the
	// answer only asks whether it has a qualifying row, and DIRECTOR 9999 does
	// not exist), and joins between two shared relations that only one
	// sub-query states.
	{"detached", "title FROM MOVIE, CAST, GENRE", []string{
		", DIRECTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND DIRECTOR.did = 3",
		", DIRECTOR WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND DIRECTOR.did = 9999",
		" WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND CAST.mid = GENRE.mid AND GENRE.genre = 'genre02'",
		" WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND CAST.aid = GENRE.mid",
		" WHERE MOVIE.mid = CAST.mid AND MOVIE.mid = GENRE.mid AND MOVIE.year <= 1980",
	}, [][2]int{{1, 0}, {2, 0}, {3, 0}}},
}

// goldenProfile is a hand-written profile over the popular end of the
// workload's Zipf-skewed domains, so that most sub-queries return rows and
// their answers overlap (a generated profile names directors and actors
// uniformly, which at 400 movies match almost nothing).
func goldenProfile(t testing.TB) *prefs.Profile {
	t.Helper()
	p := prefs.NewProfile()
	attr := func(rel, a string) schema.AttrRef { return schema.AttrRef{Relation: rel, Attr: a} }
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(p.AddJoin(attr("MOVIE", "did"), attr("DIRECTOR", "did"), 0.95))
	must(p.AddJoin(attr("MOVIE", "mid"), attr("GENRE", "mid"), 0.94))
	must(p.AddJoin(attr("MOVIE", "mid"), attr("CAST", "mid"), 0.96))
	must(p.AddJoin(attr("CAST", "aid"), attr("ACTOR", "aid"), 0.93))
	for _, s := range []struct {
		rel, attr string
		op        query.Op
		v         value.Value
		doi       float64
	}{
		{"MOVIE", "year", query.OpGe, value.Int(1950), 0.8},
		{"GENRE", "genre", query.OpEq, value.Str(workload.GenreName(0)), 0.85},
		{"DIRECTOR", "name", query.OpEq, value.Str("Director 0001"), 0.8},
		{"MOVIE", "duration", query.OpLe, value.Int(150), 0.7},
		{"GENRE", "genre", query.OpEq, value.Str(workload.GenreName(1)), 0.75},
		{"ACTOR", "name", query.OpEq, value.Str("Actor 00001"), 0.8},
		{"GENRE", "genre", query.OpEq, value.Str(workload.GenreName(2)), 0.6},
		{"DIRECTOR", "name", query.OpEq, value.Str("Director 0002"), 0.6},
		{"ACTOR", "name", query.OpEq, value.Str("Actor 00002"), 0.65},
		{"MOVIE", "year", query.OpLe, value.Int(1995), 0.5},
		{"GENRE", "genre", query.OpEq, value.Str(workload.GenreName(3)), 0.5},
		{"ACTOR", "name", query.OpEq, value.Str("Actor 00003"), 0.5},
	} {
		must(p.AddSelection(attr(s.rel, s.attr), s.op, s.v, s.doi))
	}
	return p
}

// goldenQueries builds the grid over env: for every base query, the
// personalized unions of its L best preferences for L ∈ {1, 3, 10} under
// all-match and any-match, top-k at k ∈ {1, 10} over the L = 3 all-match and
// L = 10 any-match unions, the no-preference union (nil dois), the plain
// conjunctive queries, the hand-written union shapes, and last — new cases
// are only ever appended — the equality access paths (goldenAccess and two
// more shapes) and top-20 over every base's L = 1 and L = 3 all-match unions.
func goldenQueries(t testing.TB, env *workload.Env) []goldenQuery {
	t.Helper()
	profile := goldenProfile(t)
	var out []goldenQuery
	// allMatch keeps each base's all-match unions at L = 1 and 3 for the
	// top-20 cases appended last.
	type ranked struct {
		subs []*query.Query
		dois []float64
	}
	allMatch := make([]map[int]ranked, len(goldenBases))
	union := func(name string, subs []*query.Query, dois []float64, min, k int) {
		out = append(out, goldenQuery{name: name, run: func(ctx context.Context, db *storage.DB) (goldenCase, error) {
			var res *UnionResult
			var err error
			if k > 0 {
				res, err = wholePlan(db.Schema(), subs).EvalTopK(ctx, db, dois, min, k)
			} else {
				res, err = wholePlan(db.Schema(), subs).EvalContext(ctx, db, dois, min)
			}
			if err != nil {
				return goldenCase{}, err
			}
			return goldenFromUnion(name, res), nil
		}})
	}
	for bi, sql := range goldenBases {
		base := sqlparse.MustParse(env.DB.Schema(), sql)
		sp, err := prefspace.Build(base, profile, env.Est, prefspace.Options{MaxK: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(sp.P) < 10 {
			t.Fatalf("base %d: only %d preferences extracted, want 10", bi, len(sp.P))
		}
		union(fmt.Sprintf("b%d/nodoi", bi), []*query.Query{base.Clone()}, nil, 1, 0)
		allMatch[bi] = make(map[int]ranked)
		for _, l := range []int{1, 3, 10} {
			var subs []*query.Query
			var dois []float64
			for _, p := range sp.P[:l] {
				// rewrite.Integrate, inlined: package rewrite imports exec.
				sq := base.Clone()
				for _, j := range p.Imp.Path {
					have := false
					for _, h := range sq.Joins {
						have = have || h == j || (h.Left == j.Right && h.Right == j.Left)
					}
					if !have {
						sq.AddJoin(j)
					}
				}
				sq.AddSelection(p.Imp.Sel)
				subs = append(subs, sq)
				dois = append(dois, p.Doi)
			}
			allMatch[bi][l] = ranked{subs, dois}
			union(fmt.Sprintf("b%d/L%d/all", bi, l), subs, dois, l, 0)
			union(fmt.Sprintf("b%d/L%d/any", bi, l), subs, dois, 1, 0)
			for _, k := range []int{1, 10} {
				switch l {
				case 3:
					union(fmt.Sprintf("b%d/L3/all/top%d", bi, k), subs, dois, l, k)
				case 10:
					union(fmt.Sprintf("b%d/L10/any/top%d", bi, k), subs, dois, 1, k)
				}
			}
		}
	}
	plain := func(name, spill, sql string) {
		q := sqlparse.MustParse(env.DB.Schema(), sql)
		out = append(out, goldenQuery{name: name, spill: spill, run: func(ctx context.Context, db *storage.DB) (goldenCase, error) {
			res, err := EvalContext(ctx, db, q)
			if err != nil {
				return goldenCase{}, err
			}
			return goldenFromResult(name, res), nil
		}})
	}
	for _, p := range goldenPlain {
		plain("plain/"+p.name, p.spill, p.sql)
	}
	// Sub-query i of a shape carries doi top·(1 − 0.9·i/L).
	shape := func(name, project string, tails []string, top float64, runs [][2]int) {
		var subs []*query.Query
		var dois []float64
		for i, tail := range tails {
			subs = append(subs, sqlparse.MustParse(env.DB.Schema(), "SELECT "+project+tail))
			dois = append(dois, top*(1-0.9*float64(i)/float64(len(tails))))
		}
		for _, r := range runs {
			min, label := r[0], fmt.Sprintf("min%d", r[0])
			if min == 0 {
				min, label = len(subs), "all"
			}
			if r[1] > 0 {
				label += fmt.Sprintf("/top%d", r[1])
			}
			union("shape/"+name+"/"+label, subs, dois, min, r[1])
		}
	}
	for _, s := range goldenShapes {
		shape(s.name, s.project, s.tails, 0.95, s.runs)
	}
	// Seventy sub-queries, so a row's matches span two bitset words; their
	// dois are small enough that seventy of them do not round to 1.
	var wide []string
	for i := 0; i < 35; i++ {
		wide = append(wide, fmt.Sprintf(" WHERE MOVIE.year >= %d", 1925+2*i),
			fmt.Sprintf(" WHERE MOVIE.duration <= %d", 175-2*i))
	}
	shape("wide", "title FROM MOVIE", wide, 0.1, [][2]int{{1, 0}, {1, 10}, {40, 0}})
	for _, p := range goldenAccess {
		plain("access/"+p.name, p.spill, p.sql)
	}
	// A union whose base is an equality on the seed relation, with reducers
	// that are equalities too; and one whose sub-queries differ only in the
	// sign of a FLOAT zero, which are the same condition.
	shape("eq-base", "title FROM MOVIE", []string{
		" WHERE MOVIE.did = 3",
		", GENRE WHERE MOVIE.did = 3 AND MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00'",
		", DIRECTOR WHERE MOVIE.did = 3 AND MOVIE.did = DIRECTOR.did AND DIRECTOR.name = 'Director 0003'",
		", GENRE WHERE MOVIE.did = 3 AND MOVIE.mid = GENRE.mid AND GENRE.genre = 'no such genre'",
	}, 0.9, [][2]int{{1, 0}, {2, 0}})
	shape("signed-zero", "title FROM MOVIE", []string{
		" WHERE MOVIE.duration >= 0.0 AND MOVIE.year >= 1990",
		" WHERE MOVIE.duration >= -0.0 AND MOVIE.year >= 1990",
		", GENRE WHERE MOVIE.mid = GENRE.mid AND GENRE.genre = 'genre00' AND MOVIE.year >= -0.0",
	}, 0.9, [][2]int{{1, 0}, {0, 0}})
	// The /execute shape: the top 20 rows of an all-match union, whose rows
	// all tie on doi, so the key's tie-break orders every one of them.
	for bi := range goldenBases {
		for _, l := range []int{1, 3} {
			r := allMatch[bi][l]
			union(fmt.Sprintf("b%d/L%d/all/top20", bi, l), r.subs, r.dois, l, 20)
		}
	}
	return out
}

// goldenExecRuns runs the whole grid on the four execution paths — the
// in-memory tables, the persistent block store, the in-memory tables under a
// spill budget, and a shared scan — requires the four to agree on every
// case, and returns one record per case.
func goldenExecRuns(t testing.TB) []goldenCase {
	t.Helper()
	cfg := workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151}
	env := workload.NewEnv(cfg, 0)
	st, err := blockstore.Open(t.TempDir(), workload.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	disk, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(disk, cfg)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	paths := []struct {
		name string
		db   *storage.DB
		ctx  func() context.Context
	}{
		{"mem", env.DB, context.Background},
		{"disk", disk, context.Background},
		{"spill", env.DB, func() context.Context {
			return iter.WithBudget(context.Background(), iter.Budget{Bytes: goldenSpillBytes, Dir: spillDir})
		}},
		{"share", env.DB, func() context.Context {
			return WithScanShare(context.Background(), NewScanShare(0))
		}},
	}
	spills0, _, _ := iter.SpillStats()
	var cases []goldenCase
	for _, q := range goldenQueries(t, env) {
		var first goldenCase
		for pi, p := range paths {
			got, err := q.run(p.ctx(), p.db)
			if err != nil {
				t.Fatalf("%s on %s: %v", q.name, p.name, err)
			}
			if pi == 0 {
				first = got
				continue
			}
			want := first
			if p.name == "spill" && q.spill == "multiset" {
				got.Rows, want.Rows = sortedCopy(got.Rows), sortedCopy(want.Rows)
			}
			if p.name == "spill" && q.spill == "count" && len(got.Rows) == len(want.Rows) {
				got.Rows = want.Rows
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the %s path differs from the mem path\n%s", q.name, p.name, goldenDiff(got, want))
			}
		}
		cases = append(cases, first)
	}
	if spills1, _, _ := iter.SpillStats(); spills1-spills0 < int64(len(cases)) {
		t.Fatalf("only %d spill runs over %d cases: the spilled path is not spilling", spills1-spills0, len(cases))
	}
	return cases
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// goldenDiff names the first field or row on which two records differ.
func goldenDiff(got, want goldenCase) string {
	if got.BlockReads != want.BlockReads {
		return fmt.Sprintf("block reads %d, want %d", got.BlockReads, want.BlockReads)
	}
	if !reflect.DeepEqual(got.Subs, want.Subs) {
		return fmt.Sprintf("subs %+v, want %+v", got.Subs, want.Subs)
	}
	for i := 0; i < len(got.Rows) && i < len(want.Rows); i++ {
		if got.Rows[i] != want.Rows[i] {
			return fmt.Sprintf("row %d: %s, want %s", i, got.Rows[i], want.Rows[i])
		}
	}
	return fmt.Sprintf("%d rows, want %d", len(got.Rows), len(want.Rows))
}

// checkGolden compares runs of the grid against the recorded file.
func checkGolden(t *testing.T, got []goldenCase) {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it on the parent commit with -update)", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Case != want[i].Case {
			t.Fatalf("case %d is %s, golden file has %s", i, got[i].Case, want[i].Case)
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: %s", want[i].Case, goldenDiff(got[i], want[i]))
		}
	}
}

// TestGoldenExec is the differential oracle for the executor: every ranked
// row (key, matched sub-queries, doi bits), every plain row in order, the
// charged block reads and the per-sub-query row counts must equal, on the
// mem, disk, spilled and shared-scan paths alike, what the recorded commit
// produced.
func TestGoldenExec(t *testing.T) {
	got := goldenExecRuns(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}
	checkGolden(t, got)
}
