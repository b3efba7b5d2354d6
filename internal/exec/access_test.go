package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cqp/internal/blockstore"
	"cqp/internal/iter"
	"cqp/internal/obs"
	"cqp/internal/query"
	"cqp/internal/sqlparse"
	"cqp/internal/storage"
	"cqp/internal/workload"
)

// reducerShapes are two-sub-query unions: a base query alone, and the base
// extended by one preference path whose reducer does or does not start at an
// indexed end. memCAST is how many CAST rows the union scanned on the
// in-memory tables before reducers were walked from an indexed end; a union
// reads all 1 587 on the block store, then and now, and so does a reducer
// under a scan share. A CAST that B reads (inBase) is probed through its
// index when B is filled, under a share too.
//
// Under a spill budget no B fits, and each sub-query runs whole, from its
// indexed far end when its reducer has one and from MOVIE otherwise. A CAST
// that the preference does not select (castSel) is then joined on one column
// and builds from its index, reading none of its rows; one it selects is
// opened through that selection, as the reducer opened it, and reads memCAST
// rows: the 'lead' chain, or every row for a range.
var reducerShapes = []struct {
	name, base, pref string
	indexed          bool // the reducer starts at its indexed end on the in-memory tables
	memCAST          int64
	inBase           bool
	castSel          bool // the preference selects CAST rows
}{
	// ACTOR's name chain, then CAST through its index on aid.
	{"actor-name", "MOVIE", ", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.name = 'Actor 00001'", true, 1587, false, false},
	// GENRE's genre chain, then CAST through its index on mid.
	{"genre-via-cast", "MOVIE", ", CAST, GENRE WHERE MOVIE.mid = CAST.mid AND CAST.mid = GENRE.mid AND GENRE.genre = 'genre00'", true, 1587, false, false},
	// A filtered middle: CAST's build would not be its index, so the
	// reducer starts at CAST's own 'lead' chain.
	{"filtered-middle", "MOVIE", ", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND CAST.role = 'lead' AND ACTOR.name = 'Actor 00001'", false, 523, false, true},
	// A range at the far end: no equality chain to start from.
	{"range-far-end", "MOVIE", ", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.aid <= 3", false, 1587, false, false},
	// A composite attachment: the reducer is GENRE alone, keyed on MOVIE.mid
	// and CAST.mid; the base builds CAST from its index on mid.
	{"composite-attachment", "MOVIE, CAST WHERE MOVIE.mid = CAST.mid", ", GENRE WHERE MOVIE.mid = CAST.mid AND GENRE.mid = MOVIE.mid AND CAST.mid = GENRE.mid AND GENRE.genre = 'genre00'", false, 0, true, false},
	// A two-column join inside the reducer: CAST's build has two key columns.
	{"two-column-join", "MOVIE", ", CAST, ACTOR WHERE MOVIE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND CAST.mid = ACTOR.aid AND ACTOR.name = 'Actor 00024'", false, 1587, false, false},
	// A walk that fails midway: from DIRECTOR's name chain, ACTOR builds from
	// its index, but CAST is filtered, so the reducer keeps GENRE as its seed.
	{"seed-fallback", "MOVIE", ", GENRE, CAST, ACTOR, DIRECTOR WHERE MOVIE.mid = GENRE.mid AND GENRE.mid = CAST.mid AND CAST.aid = ACTOR.aid AND ACTOR.aid = DIRECTOR.did AND CAST.role >= 'lead' AND DIRECTOR.name = 'Director 0003'", false, 1587, false, true},
}

// shapeSubs parses a shape into its union: the preference's sub-query, then
// the base's.
func shapeSubs(db *storage.DB, base, pref string) []*query.Query {
	from, _, _ := strings.Cut(base, " WHERE ")
	return []*query.Query{
		sqlparse.MustParse(db.Schema(), "SELECT title FROM "+from+pref),
		sqlparse.MustParse(db.Schema(), "SELECT title FROM "+base),
	}
}

// accessPaths are the four ways a union runs: the in-memory tables, the
// block store, a batch's shared scan, and the in-memory tables under a spill
// budget.
type accessPath struct {
	name string
	db   *storage.DB
	ctx  func() context.Context
}

func accessPaths(t *testing.T) []accessPath {
	t.Helper()
	cfg := workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151}
	st, err := blockstore.Open(t.TempDir(), workload.Schema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	disk, err := st.DB()
	if err != nil {
		t.Fatal(err)
	}
	workload.GenerateInto(disk, cfg)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	mem := workload.GenerateDB(cfg)
	spillDir := t.TempDir()
	return []accessPath{
		{"mem", mem, context.Background},
		{"disk", disk, context.Background},
		{"share", mem, func() context.Context { return WithScanShare(context.Background(), NewScanShare(0)) }},
		{"spill", mem, func() context.Context {
			return iter.WithBudget(context.Background(), iter.Budget{Bytes: unionBudget, Dir: spillDir})
		}},
	}
}

// TestReducerAccessPath runs every reducer shape on every path and holds its
// answer and charge to each sub-query evaluated alone; the preference must
// match some movies. It counts the CAST rows each union scans: none for a
// qualifying reducer on the in-memory tables, under a spill budget what the
// sub-queries run one at a time read (reducerShapes), and elsewhere what the
// union scanned before reducers were walked from an indexed end. Under a scan share
// a qualifying reducer builds no index on CAST; over a hundred unions on the
// in-memory tables it builds the one it needs once. A reducer whose index
// walk fails midway keeps its first relation as its seed.
func TestReducerAccessPath(t *testing.T) {
	for _, p := range accessPaths(t) {
		for _, s := range reducerShapes {
			reg := obs.NewRegistry()
			p.db.SetMetrics(reg)
			subs := shapeSubs(p.db, s.base, s.pref)
			want, blocks := independentUnion(t, p.db, subs)
			scanned0 := reg.Counter("storage_rows_scanned_total", "table", "CAST").Value()
			dropBaseCache(p.db)
			got, err := wholePlan(p.db.Schema(), subs).EvalContext(p.ctx(), p.db, nil, 1)
			if err != nil {
				t.Fatalf("%s on %s: %v", s.name, p.name, err)
			}
			ok := got.BlockReads == blocks && len(got.Rows) == len(want) && got.Subs[0].Rows > 0
			for _, r := range got.Rows {
				ok = ok && fmt.Sprint(r.Matched) == fmt.Sprint(want[renderKey(r.Key)])
			}
			if !ok {
				t.Errorf("%s on %s: %d keys and %d blocks, want %d and %d, or some key's matches differ",
					s.name, p.name, len(got.Rows), got.BlockReads, len(want), blocks)
			}
			wantCAST := int64(1587)
			switch {
			case p.name == "share" && s.inBase:
				wantCAST = 0
			case p.name == "spill" && !s.castSel:
				wantCAST = 0
			case p.name != "mem" && p.name != "spill":
			case s.indexed:
				wantCAST = 0
			default:
				wantCAST = s.memCAST
			}
			if n := reg.Counter("storage_rows_scanned_total", "table", "CAST").Value() - scanned0; n != wantCAST {
				t.Errorf("%s on %s: the union scanned %d CAST rows, want %d", s.name, p.name, n, wantCAST)
			}
			p.db.SetMetrics(nil)
		}
	}

	// A fresh database: under a scan share the qualifying reducers build no
	// index on CAST, and on the in-memory tables one each, once.
	db := workload.GenerateDB(workload.DBConfig{Movies: 400, Directors: 40, Actors: 200, Seed: 151})
	reg := obs.NewRegistry()
	db.SetMetrics(reg)
	builds := func() (n int64) {
		for _, col := range []string{"aid", "mid"} {
			n += reg.Counter("storage_index_builds_total", "table", "CAST", "column", col).Value()
		}
		return n
	}
	for _, s := range reducerShapes[:2] {
		subs := shapeSubs(db, s.base, s.pref)
		if _, err := wholePlan(db.Schema(), subs).EvalContext(WithScanShare(context.Background(), NewScanShare(0)), db, nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := builds(); n != 0 {
		t.Errorf("qualifying reducers under a scan share built %d indexes on CAST, want none", n)
	}
	scanned := reg.Counter("storage_rows_scanned_total", "table", "CAST").Value()
	for _, s := range reducerShapes[:2] {
		subs := shapeSubs(db, s.base, s.pref)
		for i := 0; i < 100; i++ {
			dropBaseCache(db)
			if _, err := wholePlan(db.Schema(), subs).EvalContext(context.Background(), db, nil, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := reg.Counter("storage_rows_scanned_total", "table", "CAST").Value() - scanned; n != 0 {
		t.Errorf("200 unions of qualifying reducers scanned %d CAST rows, want none", n)
	}
	for _, col := range []string{"aid", "mid"} {
		if n := reg.Counter("storage_index_builds_total", "table", "CAST", "column", col).Value(); n != 1 {
			t.Errorf("CAST.%s's index built %d times over 100 unions, want once", col, n)
		}
	}

	// A reducer whose index walk fails midway is seeded at its first relation,
	// GENRE: the union reads every GENRE row. Seeded at DIRECTOR's name chain,
	// where the walk started, it would build GENRE from its index and read none.
	fallback := reducerShapes[len(reducerShapes)-1]
	scanned = reg.Counter("storage_rows_scanned_total", "table", "GENRE").Value()
	dropBaseCache(db)
	if _, err := wholePlan(db.Schema(), shapeSubs(db, fallback.base, fallback.pref)).EvalContext(context.Background(), db, nil, 1); err != nil {
		t.Fatal(err)
	}
	genre := int64(db.MustTable("GENRE").RowCount())
	if n := reg.Counter("storage_rows_scanned_total", "table", "GENRE").Value() - scanned; n != genre {
		t.Errorf("%s: the union scanned %d GENRE rows, want all %d", fallback.name, n, genre)
	}
}
