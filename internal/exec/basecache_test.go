package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cqp/internal/blockstore"
	"cqp/internal/iter"
	"cqp/internal/prefspace"
	"cqp/internal/query"
	"cqp/internal/schema"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/value"
	"cqp/internal/workload"
)

// dropBaseCache empties db's base cache, so that the next execution of any
// union fills its B, builds every bitmap and computes every mark.
func dropBaseCache(db *storage.DB) {
	c := cacheOf(db)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.tail != nil {
		c.remove(c.tail)
	}
}

// additions is what preference group adds to q, as the personalizer
// integrates it: the path's joins and relations q lacks, then the selection.
func additions(q *query.Query, group []prefspace.Pref) query.Query {
	var add query.Query
	rel := func(r string) {
		if !q.HasRelation(r) && !add.HasRelation(r) {
			add.From = append(add.From, r)
		}
	}
	for _, p := range group {
		for _, j := range p.Imp.Path {
			if !q.HasJoin(j) && !add.HasJoin(j) {
				rel(j.Left.Relation)
				rel(j.Right.Relation)
				add.Joins = append(add.Joins, j)
			}
		}
		rel(p.Imp.Sel.Attr.Relation)
		add.Selections = append(add.Selections, p.Imp.Sel)
	}
	return add
}

// cacheRequest is one execution of a replayed stream.
type cacheRequest struct {
	name       string
	plan       *UnionPlan
	dois       []float64
	minMatches int
	k          int
}

func (r cacheRequest) eval(ctx context.Context, db *storage.DB) (*UnionResult, error) {
	if r.k > 0 {
		return r.plan.EvalTopK(ctx, db, r.dois, r.minMatches, r.k)
	}
	return r.plan.EvalContext(ctx, db, r.dois, r.minMatches)
}

// untimed is res without its timings, which alone may differ between two
// executions of one union.
func untimed(res *UnionResult) *UnionResult {
	out := *res
	out.Elapsed, out.Base, out.Rank = 0, 0, 0
	out.Subs = slices.Clone(res.Subs)
	for i := range out.Subs {
		out.Subs[i].Elapsed = 0
	}
	return &out
}

// cacheStream draws n executions over env's database: six queries, four
// profiles, K = 10, and per execution 2 to 8 of the preferences, one per
// sub-query or merged two by two, all-match or any-match, whole or top-10.
// The queries and preferences recur, as a server's do.
func cacheStream(t *testing.T, env *workload.Env, n int, seed int64) []cacheRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	queries := workload.Queries(6, 11)
	profiles := workload.Profiles(4, workload.ProfileConfig{SelectionPrefs: 40, Seed: 5})
	spaces := make(map[[2]int]*prefspace.Space)
	var out []cacheRequest
	for len(out) < n {
		qi, ui := rng.Intn(len(queries)), rng.Intn(len(profiles))
		sp := spaces[[2]int{qi, ui}]
		if sp == nil {
			var err error
			if sp, err = prefspace.Build(queries[qi], profiles[ui], env.Est, prefspace.Options{MaxK: 10}); err != nil {
				t.Fatal(err)
			}
			spaces[[2]int{qi, ui}] = sp
		}
		if sp.K < 2 {
			continue
		}
		chosen := rng.Perm(sp.K)[:2+rng.Intn(min(7, sp.K-1))]
		slices.Sort(chosen)
		per := 1 + rng.Intn(2) // preferences per sub-query
		var adds []query.Query
		var dois []float64
		for at := 0; at < len(chosen); at += per {
			var group []prefspace.Pref
			for _, c := range chosen[at:min(at+per, len(chosen))] {
				group = append(group, sp.P[c])
			}
			adds = append(adds, additions(sp.Query, group))
			dois = append(dois, group[0].Doi)
		}
		r := cacheRequest{
			name: fmt.Sprintf("request %d: q%d u%d prefs %v by %d", len(out), qi, ui, chosen, per),
			plan: NewUnionPlan(env.DB.Schema(), sp.Query, adds), dois: dois, minMatches: 1,
		}
		if rng.Intn(2) == 0 {
			r.minMatches = len(adds)
		}
		if rng.Intn(2) == 0 {
			r.k = 10
		}
		out = append(out, r)
	}
	return out
}

// TestBaseCacheMatchesOnePass replays a stream with recurring queries and
// preferences over a 600-movie database: every execution answers, field for
// field but its timings, what the one-pass plan answers — forced by a spill
// budget of one byte, which no B fits — on an emptied cache, on a warm one,
// from two goroutines sharing one cache, over the same data in a block
// store, and after rows are inserted into a relation of Q and into a
// relation only a reducer reads.
func TestBaseCacheMatchesOnePass(t *testing.T) {
	env := workload.NewEnv(workload.DBConfig{Movies: 600, Seed: 23}, 1)
	db := env.DB
	stream := cacheStream(t, env, 120, 29)
	onePass := iter.WithBudget(context.Background(), iter.Budget{Bytes: 1, Dir: t.TempDir()})
	report := func(ctx context.Context) (context.Context, *Report) {
		r := new(Report)
		return WithReport(ctx, r), r
	}
	// want answers every request by the one-pass plan.
	want := func() []*UnionResult {
		out := make([]*UnionResult, len(stream))
		for i, r := range stream {
			ctx, how := report(onePass)
			res, err := r.eval(ctx, db)
			if err != nil {
				t.Fatalf("%s, one pass: %v", r.name, err)
			}
			if how.Base != "onepass" {
				t.Fatalf("%s: a 1-byte budget ran %q, want the one-pass plan", r.name, how.Base)
			}
			out[i] = untimed(res)
		}
		return out
	}
	check := func(phase string, r cacheRequest, want *UnionResult, ctx context.Context) *Report {
		t.Helper()
		ctx, how := report(ctx)
		got, err := r.eval(ctx, db)
		if err != nil {
			t.Fatalf("%s, %s: %v", r.name, phase, err)
		}
		if g := untimed(got); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s, %s (base %s): %d rows of %d at %d blocks, the one-pass plan %d of %d at %d\n%+v\n%+v",
				r.name, phase, how.Base, len(g.Rows), g.Total, g.BlockReads, len(want.Rows), want.Total, want.BlockReads, g.Subs, want.Subs)
		}
		return how
	}

	wants := want()
	var fills, hits, built, found int
	for i, r := range stream {
		dropBaseCache(db)
		if how := check("cold", r, wants[i], context.Background()); how.Base != "fill" || how.BitmapsHit != 0 {
			t.Fatalf("%s, cold: base %s with %d bitmaps cached", r.name, how.Base, how.BitmapsHit)
		}
	}
	for i, r := range stream { // the stream in order: B and bitmaps recur
		how := check("stream", r, wants[i], context.Background())
		fills, hits, built, found = fills+btoi(how.Base == "fill"), hits+btoi(how.Base == "hit"), built+how.BitmapsBuilt, found+how.BitmapsHit
	}
	for i, r := range stream {
		if how := check("warm", r, wants[i], context.Background()); how.Base != "hit" || how.BitmapsBuilt != 0 {
			t.Fatalf("%s, warm: base %s with %d bitmaps built", r.name, how.Base, how.BitmapsBuilt)
		}
	}
	t.Logf("%d executions in order: %d fills, %d hits; %d bitmaps built, %d found", len(stream), fills, hits, built, found)
	if hits == 0 || found == 0 {
		t.Error("the stream never reused a base or a bitmap")
	}

	// Two goroutines on one cache, each over the whole stream in its own order.
	dropBaseCache(db)
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range stream {
				i := n
				if g == 1 {
					i = len(stream) - 1 - n
				}
				got, err := stream[i].eval(context.Background(), db)
				if err != nil {
					errs <- fmt.Sprintf("%s, goroutine %d: %v", stream[i].name, g, err)
					return
				}
				if !reflect.DeepEqual(untimed(got), wants[i]) {
					errs <- fmt.Sprintf("%s, goroutine %d: not the one-pass answer", stream[i].name, g)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// The same stream over the same data in a block store, whose rows B
	// keeps rather than references: cold, then warm.
	st, err := blockstore.Open(t.TempDir(), workload.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	disk, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(disk, workload.DBConfig{Movies: 600, Seed: 23})
	for _, phase := range []string{"block store, cold", "block store, warm"} {
		for i, r := range stream {
			got, err := r.eval(context.Background(), disk)
			if err != nil {
				t.Fatalf("%s, %s: %v", r.name, phase, err)
			}
			if !reflect.DeepEqual(untimed(got), wants[i]) {
				t.Fatalf("%s, %s: not the one-pass answer over the in-memory tables", r.name, phase)
			}
		}
	}

	// Rows inserted into a relation of Q and into one only a reducer reads:
	// every warm base and bitmap they change is stale, and the new rows show.
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE WHERE MOVIE.year >= 1900")
	genre := query.Selection{Attr: attrRef("GENRE", "genre"), Op: query.OpEq, Value: value.Str(workload.GenreName(0))}
	plan := NewUnionPlan(db.Schema(), q, []query.Query{
		{From: []string{"GENRE"}, Joins: []query.Join{{Left: attrRef("MOVIE", "mid"), Right: attrRef("GENRE", "mid")}}, Selections: []query.Selection{genre}},
		{Selections: []query.Selection{{Attr: attrRef("MOVIE", "duration"), Op: query.OpLe, Value: value.Int(100)}}},
	})
	inserted := append(stream, cacheRequest{name: "inserted rows", plan: plan, minMatches: 1})
	for _, r := range inserted {
		if _, err := r.eval(context.Background(), db); err != nil { // warm every entry
			t.Fatal(err)
		}
	}
	movies := db.MustTable("MOVIE")
	mid := int64(movies.RowCount() + 1_000_000)
	movies.MustInsert(value.Int(mid), value.Str("Inserted Movie"), value.Int(1999), value.Int(90), value.Int(1))
	db.MustTable("GENRE").MustInsert(value.Int(mid), value.Str(workload.GenreName(0)))
	wants = want()
	for i, r := range stream {
		check("after the inserts", r, wants[i], context.Background())
	}
	res, err := plan.EvalContext(context.Background(), db, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var row *RankedRow
	for i := range res.Rows {
		if res.Rows[i].Key[0] == value.Str("Inserted Movie") {
			row = &res.Rows[i]
		}
	}
	if row == nil || !slices.Equal(row.Matched, []int{0, 1}) {
		t.Fatalf("the inserted movie is missing or unmatched in the warm answer: %+v", row)
	}
	// A genre row alone, for a movie the genre did not hold: only the
	// reducer's relation changed.
	var other storage.Row
	for _, r := range res.Rows {
		if !slices.Contains(r.Matched, 0) {
			other = r.Key
			break
		}
	}
	if other == nil {
		t.Fatal("every movie is of genre 0")
	}
	for _, m := range movies.(*storage.Table).Rows() {
		if m[1] == other[0] {
			db.MustTable("GENRE").MustInsert(m[0], value.Str(workload.GenreName(0)))
		}
	}
	res, err = plan.EvalContext(context.Background(), db, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Key[0] == other[0] && !slices.Contains(r.Matched, 0) {
			t.Errorf("%s joined genre 0, yet its warm answer matches %v", other[0], r.Matched)
		}
	}
	ctx, how := report(onePass)
	fresh, err := plan.EvalContext(ctx, db, nil, 1)
	if err != nil || how.Base != "onepass" {
		t.Fatalf("one pass: %v, base %s", err, how.Base)
	}
	if !reflect.DeepEqual(untimed(res), untimed(fresh)) {
		t.Error("after the genre row, the warm answer is not the one-pass answer")
	}

	// Row marks. With every B dropped and its marks kept, each bitmap is
	// built again from cached marks, and answers as the one-pass plan does:
	// in order, from two goroutines, and over the block store, whose next
	// fill must number its rows as the one the marks were computed over did.
	onePassOn := func(d *storage.DB) []*UnionResult {
		out := make([]*UnionResult, len(stream))
		for i, r := range stream {
			res, err := r.eval(onePass, d)
			if err != nil {
				t.Fatalf("%s, one pass: %v", r.name, err)
			}
			out[i] = untimed(res)
		}
		return out
	}
	fromMarks := func(phase string, d *storage.DB, wants []*UnionResult, goroutines int) {
		dropBases(d)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var sum Report
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range stream {
					i := n
					if g == 1 {
						i = len(stream) - 1 - n
					}
					ctx, how := report(context.Background())
					got, err := stream[i].eval(ctx, d)
					if err == nil && !reflect.DeepEqual(untimed(got), wants[i]) {
						err = fmt.Errorf("not the one-pass answer (base %s, marks %d hit, %d built)", how.Base, how.MarksHit, how.MarksBuilt)
					}
					mu.Lock()
					sum.MarksHit, sum.MarksBuilt = sum.MarksHit+how.MarksHit, sum.MarksBuilt+how.MarksBuilt
					mu.Unlock()
					if err != nil {
						t.Errorf("%s, %s, goroutine %d: %v", stream[i].name, phase, g, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		t.Logf("%s: %d marks hit, %d built", phase, sum.MarksHit, sum.MarksBuilt)
		if sum.MarksHit == 0 || goroutines == 1 && sum.MarksBuilt != 0 {
			t.Errorf("%s: %d marks hit and %d built, want every one cached", phase, sum.MarksHit, sum.MarksBuilt)
		}
	}
	wants = onePassOn(db) // the genre rows since moved answers of the stream
	for i, r := range stream {
		check("after the genre rows", r, wants[i], context.Background())
	}
	fromMarks("marks warm", db, wants, 1)
	fromMarks("marks warm, two goroutines", db, wants, 2)
	fromMarks("block store, marks warm", disk, onePassOn(disk), 1)

	// Two Bs over MOVIE share the marks of the same conditions: the second
	// builds its bitmaps from the first's, computing none.
	twoBs := make([]cacheRequest, 2)
	for i, sql := range []string{"SELECT title FROM MOVIE WHERE MOVIE.year >= 1930", "SELECT title FROM MOVIE WHERE MOVIE.duration >= 70"} {
		q := sqlparse.MustParse(db.Schema(), sql)
		twoBs[i] = cacheRequest{name: sql, plan: NewUnionPlan(db.Schema(), q, plan.adds), minMatches: 1}
	}
	dropBaseCache(db)
	for i, r := range twoBs {
		want, err := r.eval(onePass, db)
		if err != nil {
			t.Fatal(err)
		}
		how := check("two Bs", r, untimed(want), context.Background())
		if i == 1 && (how.Base != "fill" || how.MarksHit != 2 || how.MarksBuilt != 0) {
			t.Errorf("%s: base %s, %d marks hit, %d built; want a fill reading the first B's two marks", r.name, how.Base, how.MarksHit, how.MarksBuilt)
		}
	}

	// An insert into the relation of a residual selection's mark alone (B is
	// MOVIE ⋈ GENRE, the selection GENRE's), then into that of a reducer's
	// alone (CAST, under MOVIE's mark of an actor): each shows in the warm
	// answer, and only the marks it reads are computed again.
	movieRows := movies.(*storage.Table).Rows()
	joined := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE, GENRE WHERE MOVIE.mid = GENRE.mid AND MOVIE.year >= 1900")
	actor := db.MustTable("ACTOR").(*storage.Table).Rows()[0]
	marked := cacheRequest{name: "marks after inserts", plan: NewUnionPlan(db.Schema(), joined, []query.Query{
		{Selections: []query.Selection{{Attr: attrRef("GENRE", "genre"), Op: query.OpEq, Value: value.Str(workload.GenreName(3))}}},
		{From: []string{"CAST", "ACTOR"}, Joins: []query.Join{
			{Left: attrRef("MOVIE", "mid"), Right: attrRef("CAST", "mid")}, {Left: attrRef("CAST", "aid"), Right: attrRef("ACTOR", "aid")}},
			Selections: []query.Selection{{Attr: attrRef("ACTOR", "name"), Op: query.OpEq, Value: actor[1]}}},
		{Selections: []query.Selection{{Attr: attrRef("MOVIE", "duration"), Op: query.OpLe, Value: value.Int(120)}}},
	}), minMatches: 1}
	// matches checks the warm answer against the one-pass plan's, and
	// reports whether the group of title is matched by sub-query sub.
	matches := func(title value.Value, sub int) bool {
		t.Helper()
		want, err := marked.eval(onePass, db)
		if err != nil {
			t.Fatal(err)
		}
		check("marks after inserts", marked, untimed(want), context.Background())
		return slices.ContainsFunc(want.Rows, func(r RankedRow) bool { return r.Key[0] == title && slices.Contains(r.Matched, sub) })
	}
	// A movie of B, alone with its title, that the genre and the actor miss.
	first, err := marked.eval(onePass, db)
	if err != nil {
		t.Fatal(err)
	}
	var title, movieID value.Value
	for _, r := range first.Rows {
		same := slices.DeleteFunc(slices.Clone(movieRows), func(m storage.Row) bool { return m[1] != r.Key[0] })
		if slices.Equal(r.Matched, []int{2}) && len(same) == 1 {
			title, movieID = r.Key[0], same[0][0]
			break
		}
	}
	if title.IsNull() {
		t.Fatal("every movie of B is of genre 3 or has the actor")
	}
	db.MustTable("GENRE").MustInsert(movieID, value.Str(workload.GenreName(3)))
	if !matches(title, 0) {
		t.Errorf("%s, given genre 3, is not matched by the genre's sub-query", title)
	}
	db.MustTable("CAST").MustInsert(movieID, actor[0], value.Str("cameo"))
	ctx, how = report(context.Background())
	if _, err := marked.eval(ctx, db); err != nil {
		t.Fatal(err)
	}
	if how.Base != "hit" || how.MarksBuilt != 1 || how.MarksHit != 0 {
		t.Errorf("after a cast row: base %s, %d marks hit, %d built; want B cached and the actor's mark alone computed", how.Base, how.MarksHit, how.MarksBuilt)
	}
	if !matches(title, 1) {
		t.Errorf("%s, given the actor, is not matched by the actor's sub-query", title)
	}
}

// dropBases empties db's base cache of its Bs and their bitmaps, keeping its
// marks.
func dropBases(db *storage.DB) {
	c := cacheOf(db)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bases {
		c.remove(&b.entry)
	}
}

// TestBaseCacheBytesHonest: the cache charges what it keeps alive — every
// cached B's own bytes and, once each, the arrays its bitmaps and its marks
// back onto — also once inserts between executions have replaced some of
// the bitmaps and marks whose siblings keep those arrays.
func TestBaseCacheBytesHonest(t *testing.T) {
	db := workload.NewEnv(workload.DBConfig{Movies: 600, Seed: 23}, 1).DB
	q := sqlparse.MustParse(db.Schema(), "SELECT title FROM MOVIE WHERE MOVIE.year >= 1900")
	genre := func(g int) query.Query {
		return query.Query{From: []string{"GENRE"}, Joins: []query.Join{{Left: attrRef("MOVIE", "mid"), Right: attrRef("GENRE", "mid")}},
			Selections: []query.Selection{{Attr: attrRef("GENRE", "genre"), Op: query.OpEq, Value: value.Str(workload.GenreName(g))}}}
	}
	plan := NewUnionPlan(db.Schema(), q, []query.Query{
		genre(0), genre(1),
		{Selections: []query.Selection{{Attr: attrRef("MOVIE", "duration"), Op: query.OpLe, Value: value.Int(100)}}},
		{Selections: []query.Selection{{Attr: attrRef("MOVIE", "year"), Op: query.OpLe, Value: value.Int(1990)}}},
	})
	c := cacheOf(db)
	run := func(step string) {
		t.Helper()
		if _, err := plan.EvalContext(context.Background(), db, nil, 1); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if got, want := c.bytes, heldBytes(c); got != want {
			t.Errorf("%s: the cache charges %d bytes, its entries hold %d", step, got, want)
		}
	}
	run("cold")
	movies := db.MustTable("MOVIE")
	// The genres' bitmaps and marks give way; the duration's and the year's
	// stay on the arrays they were built in.
	db.MustTable("GENRE").MustInsert(movies.(*storage.Table).Rows()[0][0], value.Str(workload.GenreName(0)))
	run("after a genre row")
	movies.MustInsert(value.Int(1_000_000), value.Str("Inserted Movie"), value.Int(1999), value.Int(90), value.Int(1))
	run("after a movie")
	run("warm")
}

// heldBytes is what c's entries keep alive, by walking them: every B's own
// bytes, and each array its bitmaps or the marks back onto, once however
// many of them still use it.
func heldBytes(c *baseCache) int64 {
	arrays := make(map[*shared]bool)
	var n int64
	held := func(s *shared) {
		if !arrays[s] {
			arrays[s] = true
			n += s.bytes
		}
	}
	for _, b := range c.bases {
		n += b.ownBytes()
		for _, m := range b.bitmaps {
			held(m.from)
		}
	}
	for _, e := range c.marks {
		held(e.from)
	}
	return n
}

func attrRef(rel, attr string) schema.AttrRef { return schema.AttrRef{Relation: rel, Attr: attr} }

// TestOversizeBaseAnsweredInOnePass: a B whose fill outgrows the cache's
// bound — here a cartesian product of three relations — gives up, and the
// one-pass plan answers what it answers under a budget no B fits.
func TestOversizeBaseAnsweredInOnePass(t *testing.T) {
	db := unionDB()
	var subs []*query.Query
	for _, sql := range []string{
		"SELECT title FROM MOVIE, GENRE, ACTOR WHERE MOVIE.year >= 1960",
		"SELECT title FROM MOVIE, GENRE, ACTOR WHERE GENRE.genre = 'genre01'",
	} {
		subs = append(subs, sqlparse.MustParse(db.Schema(), sql))
	}
	run := func(ctx context.Context) *UnionResult {
		t.Helper()
		how := new(Report)
		res, err := wholePlan(db.Schema(), subs).EvalTopK(WithReport(ctx, how), db, nil, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if how.Base != "onepass" {
			t.Fatalf("base %s, want onepass", how.Base)
		}
		return untimed(res)
	}
	got := run(context.Background())
	if want := run(iter.WithBudget(context.Background(), iter.Budget{Bytes: 1, Dir: t.TempDir()})); !reflect.DeepEqual(got, want) {
		t.Errorf("the oversize B's answer is not the one-pass answer")
	}
}

// TestBaseJoinWithinOneRelation: a join of two columns of one relation holds
// in the cached answer as in each sub-query evaluated alone — stated by Q
// (B of one relation or of two), hoisted from every sub-query, or added by
// one, over B's relation or a reducer's.
func TestBaseJoinWithinOneRelation(t *testing.T) {
	db := unionDB()
	for i, sqls := range [][]string{
		{"SELECT title FROM MOVIE WHERE MOVIE.mid = MOVIE.did"},
		{"SELECT title, role FROM MOVIE, CAST WHERE MOVIE.mid = CAST.mid AND CAST.mid = CAST.aid"},
		{"SELECT title FROM MOVIE WHERE MOVIE.mid = MOVIE.did", "SELECT title FROM MOVIE WHERE MOVIE.did = MOVIE.mid AND MOVIE.year >= 1960"},
		{"SELECT title FROM MOVIE WHERE MOVIE.mid = MOVIE.did", "SELECT title FROM MOVIE WHERE MOVIE.year >= 1960"},
		{"SELECT title FROM MOVIE, CAST WHERE MOVIE.mid = CAST.mid AND CAST.mid = CAST.aid", "SELECT title FROM MOVIE WHERE MOVIE.year < 1990"},
	} {
		var subs []*query.Query
		for _, sql := range sqls {
			subs = append(subs, sqlparse.MustParse(db.Schema(), sql))
		}
		if want, _ := independentUnion(t, db, subs[:1]); len(want) == 0 {
			t.Fatalf("union %d: its first sub-query returns nothing over the test data", i)
		}
		checkUnion(t, db, fmt.Sprint("union ", i), sqls)
	}
}
